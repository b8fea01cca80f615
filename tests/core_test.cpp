#include <gtest/gtest.h>

#include "core/classifier.h"
#include "core/cots_device.h"
#include "core/rate_adaptation.h"
#include "core/strategy.h"
#include "env/registry.h"
#include "test_helpers.h"

namespace libra::core {
namespace {

using libra::testing::make_record;
using libra::testing::make_trace;

// ---------- RA repair walk ----------

TEST(RaRepairWalk, DescendsToHighestWorking) {
  const trace::PairTrace t = make_trace(4);
  const RaWalk walk = ra_repair_walk(t, 7);
  EXPECT_EQ(walk.settled, 4);
  // Probes 7, 6, 5 fail; probe 4 is the first working one.
  EXPECT_EQ(walk.first_working_probe, 3);
  ASSERT_GE(walk.probes.size(), 4u);
  EXPECT_EQ(walk.probes[0], 7);
  EXPECT_EQ(walk.probes[3], 4);
}

TEST(RaRepairWalk, StartAtWorkingMcsIsImmediate) {
  const trace::PairTrace t = make_trace(6);
  const RaWalk walk = ra_repair_walk(t, 6);
  EXPECT_EQ(walk.settled, 6);
  EXPECT_EQ(walk.first_working_probe, 0);
}

TEST(RaRepairWalk, StopsDescendingAfterThroughputDrop) {
  // All MCSs work: the walk probes the start MCS and the one below (which
  // delivers less), then stops -- it does not scan to MCS 0.
  const trace::PairTrace t = make_trace(8);
  const RaWalk walk = ra_repair_walk(t, 8);
  EXPECT_EQ(walk.settled, 8);
  EXPECT_LE(walk.probes.size(), 2u);
}

TEST(RaRepairWalk, NothingWorks) {
  const trace::PairTrace t = make_trace(-1);
  const RaWalk walk = ra_repair_walk(t, 5);
  EXPECT_EQ(walk.settled, -1);
  EXPECT_EQ(walk.first_working_probe, -1);
  EXPECT_EQ(walk.probes.size(), 6u);  // probed 5..0
}

TEST(RaRepairWalk, FromMcsZero) {
  const trace::PairTrace t = make_trace(0);
  const RaWalk walk = ra_repair_walk(t, 0);
  EXPECT_EQ(walk.settled, 0);
  EXPECT_EQ(walk.probes.size(), 1u);
}

// ---------- UpProber ----------

TEST(UpProber, ClimbsToBestMcs) {
  const trace::PairTrace t = make_trace(6);
  UpProber prober(2);
  // Enough frames for four climbs at T0 = 5.
  for (int i = 0; i < 60; ++i) prober.on_frame(t);
  EXPECT_EQ(prober.current(), 6);
}

TEST(UpProber, DoesNotExceedWorkingCeiling) {
  const trace::PairTrace t = make_trace(4);
  UpProber prober(4);
  for (int i = 0; i < 300; ++i) prober.on_frame(t);
  EXPECT_EQ(prober.current(), 4);
}

TEST(UpProber, BacksOffExponentially) {
  const trace::PairTrace t = make_trace(4);
  UpProber prober(4);
  // First failed probe happens at frame 5; with backoff the second probe
  // comes 10 frames later, the third 20 frames after that.
  std::vector<int> probe_frames;
  for (int i = 0; i < 120; ++i) {
    const phy::McsIndex m = prober.on_frame(t);
    if (m == 5) probe_frames.push_back(i);
  }
  ASSERT_GE(probe_frames.size(), 3u);
  const int gap1 = probe_frames[1] - probe_frames[0];
  const int gap2 = probe_frames[2] - probe_frames[1];
  EXPECT_EQ(gap1, 10);
  EXPECT_EQ(gap2, 20);
}

TEST(UpProber, HoldsWhenCdrUnhealthy) {
  trace::PairTrace t = make_trace(6);
  t.cdr[4] = 0.5;  // current MCS lossy: never probe upward from here
  UpProber prober(4);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(prober.on_frame(t), 4);
  }
}

TEST(UpProber, AtMaxMcsStaysPut) {
  const trace::PairTrace t = make_trace(8);
  UpProber prober(8);
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(prober.on_frame(t), 8);
  }
}

TEST(UpProber, ResetRestoresState) {
  const trace::PairTrace t = make_trace(8);
  UpProber prober(2);
  for (int i = 0; i < 30; ++i) prober.on_frame(t);
  prober.reset(1);
  EXPECT_EQ(prober.current(), 1);
}

// ---------- LiBRA classifier ----------

trace::Dataset tiny_dataset() {
  trace::Dataset ds;
  // Clearly separated synthetic cases: BA cases have big SNR drops, RA
  // cases have moderate drops with high initial MCS, NA cases are clean.
  for (int i = 0; i < 30; ++i) {
    trace::CaseRecord ba = make_record(4, -1, 4);
    ba.init_best.snr_db = 20.0;
    ba.new_at_init_pair.snr_db = 20.0 - 15.0 - (i % 5);
    ds.records.push_back(ba);

    trace::CaseRecord ra = make_record(8, 5, 5);
    ra.init_best.snr_db = 26.0;
    ra.new_at_init_pair.snr_db = 26.0 - 5.0 - 0.1 * (i % 7);
    ds.records.push_back(ra);

    trace::CaseRecord na = make_record(6, 6, 6);
    na.forced_na = true;
    na.init_best.snr_db = 22.0;
    na.new_at_init_pair.snr_db = 22.0 - 0.05 * (i % 3);
    ds.na_records.push_back(na);
  }
  return ds;
}

TEST(LibraClassifier, LearnsSyntheticClasses) {
  LibraClassifier clf;
  util::Rng rng(1);
  clf.train(tiny_dataset(), {}, rng);
  ASSERT_TRUE(clf.trained());

  trace::FeatureVector ba_features =
      trace::extract_features(tiny_dataset().records[0]);
  EXPECT_EQ(clf.classify(ba_features, rng), trace::Action::kBA);
}

TEST(LibraClassifier, ConfidenceGateDemotesUncertainVerdicts) {
  // An impossible gate (>1) demotes every adaptation verdict to NA.
  core::LibraClassifierConfig cfg;
  cfg.min_confidence = 1.01;
  LibraClassifier gated(cfg);
  util::Rng rng(2);
  gated.train(tiny_dataset(), {}, rng);
  const trace::FeatureVector ba_features =
      trace::extract_features(tiny_dataset().records[0]);
  EXPECT_EQ(gated.classify(ba_features, rng), trace::Action::kNA);

  // A permissive gate keeps confident verdicts.
  core::LibraClassifierConfig loose;
  loose.min_confidence = 0.4;
  LibraClassifier open(loose);
  open.train(tiny_dataset(), {}, rng);
  EXPECT_EQ(open.classify(ba_features, rng), trace::Action::kBA);
}

TEST(LibraClassifier, VoteFractionsSumToOne) {
  LibraClassifier clf;
  util::Rng rng(3);
  clf.train(tiny_dataset(), {}, rng);
  const trace::FeatureVector f =
      trace::extract_features(tiny_dataset().records[0]);
  const auto votes = clf.forest().vote_fractions(f.v);
  double sum = 0.0;
  for (double v : votes) sum += v;
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

// The fleet-serving contract: a batched call over N rows, each jittered
// from its own stream, must return exactly what N serial classify() calls
// fed clones of those streams return.
TEST(LibraClassifier, ClassifyBatchBitIdenticalToSerial) {
  LibraClassifier clf;
  util::Rng train_rng(4);
  clf.train(tiny_dataset(), {}, train_rng);

  const trace::Dataset ds = tiny_dataset();
  std::vector<trace::FeatureVector> rows;
  for (const auto& rec : ds.records) rows.push_back(extract_features(rec));
  for (const auto& rec : ds.na_records) rows.push_back(extract_features(rec));

  std::vector<util::Rng> batch_streams, serial_streams;
  std::vector<util::Rng*> batch_ptrs;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    batch_streams.emplace_back(100 + i);
    serial_streams.emplace_back(100 + i);
  }
  for (util::Rng& s : batch_streams) batch_ptrs.push_back(&s);

  const std::vector<trace::Action> batched = clf.classify_batch(rows, batch_ptrs);
  ASSERT_EQ(batched.size(), rows.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(batched[i], clf.classify(rows[i], serial_streams[i]))
        << "row " << i;
  }
  // The streams must have advanced identically too (same draw count).
  for (std::size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(batch_streams[i].uniform(0, 1), serial_streams[i].uniform(0, 1))
        << "stream " << i;
  }
}

TEST(LibraClassifier, ClassifyBatchHonorsConfidenceGatePerRow) {
  core::LibraClassifierConfig cfg;
  cfg.min_confidence = 1.01;  // impossible: every adaptation demoted to NA
  LibraClassifier gated(cfg);
  util::Rng rng(5);
  gated.train(tiny_dataset(), {}, rng);

  const trace::FeatureVector ba =
      trace::extract_features(tiny_dataset().records[0]);
  std::vector<trace::FeatureVector> rows(3, ba);
  std::vector<util::Rng> streams;
  std::vector<util::Rng*> ptrs;
  for (int i = 0; i < 3; ++i) streams.emplace_back(200 + i);
  for (util::Rng& s : streams) ptrs.push_back(&s);
  for (const trace::Action a : gated.classify_batch(rows, ptrs)) {
    EXPECT_EQ(a, trace::Action::kNA);
  }
}

TEST(LibraClassifier, ClassifyBatchValidatesInputs) {
  LibraClassifier clf;
  util::Rng rng(6);
  std::vector<trace::FeatureVector> rows(2);
  std::vector<util::Rng> streams;
  streams.emplace_back(1);
  std::vector<util::Rng*> one_ptr{&streams[0]};
  // Untrained first.
  EXPECT_THROW(clf.classify_batch(rows, one_ptr), std::logic_error);
  clf.train(tiny_dataset(), {}, rng);
  // Two rows, one stream.
  EXPECT_THROW(clf.classify_batch(rows, one_ptr), std::invalid_argument);
  // Null stream.
  std::vector<util::Rng*> with_null{&streams[0], nullptr};
  EXPECT_THROW(clf.classify_batch(rows, with_null), std::invalid_argument);
}

TEST(LibraClassifier, UntrainedThrows) {
  LibraClassifier clf;
  util::Rng rng(1);
  EXPECT_THROW(clf.classify({}, rng), std::logic_error);
  trace::Dataset empty;
  EXPECT_THROW(clf.train(empty, {}, rng), std::invalid_argument);
}

TEST(LibraClassifier, NoAckRuleLowMcsAlwaysBa) {
  const LibraClassifier clf;
  for (phy::McsIndex m = 0; m < 6; ++m) {
    EXPECT_EQ(clf.no_ack_action(m, 0.5), trace::Action::kBA);
    EXPECT_EQ(clf.no_ack_action(m, 250.0), trace::Action::kBA);
  }
}

TEST(LibraClassifier, NoAckRuleHighMcsFollowsOverhead) {
  const LibraClassifier clf;
  EXPECT_EQ(clf.no_ack_action(7, 0.5), trace::Action::kBA);
  EXPECT_EQ(clf.no_ack_action(7, 5.0), trace::Action::kBA);
  EXPECT_EQ(clf.no_ack_action(7, 150.0), trace::Action::kRA);
  EXPECT_EQ(clf.no_ack_action(7, 250.0), trace::Action::kRA);
}

TEST(LibraClassifier, LabelRoundTrip) {
  for (trace::Action a :
       {trace::Action::kBA, trace::Action::kRA, trace::Action::kNA}) {
    EXPECT_EQ(LibraClassifier::to_action(LibraClassifier::to_label(a)), a);
  }
}

// An out-of-enum Action (a corrupted trace row, a cast from a raw int) must
// throw, not silently train as label 0 == Beam Adaptation.
TEST(LibraClassifier, OutOfEnumActionThrows) {
  EXPECT_THROW(LibraClassifier::to_label(static_cast<trace::Action>(42)),
               std::invalid_argument);
  EXPECT_THROW(LibraClassifier::to_label(static_cast<trace::Action>(-1)),
               std::invalid_argument);
}

// ---------- strategies ----------

TEST(Strategy, Names) {
  EXPECT_EQ(to_string(Strategy::kLibra), "LiBRA");
  EXPECT_EQ(to_string(Strategy::kRaFirst), "RA First");
  EXPECT_EQ(to_string(Strategy::kBaFirst), "BA First");
  EXPECT_EQ(to_string(Strategy::kOracleData), "Oracle-Data");
  EXPECT_EQ(to_string(Strategy::kOracleDelay), "Oracle-Delay");
  EXPECT_EQ(std::size(kAllStrategies), 5u);
}

// ---------- COTS device ----------

struct CotsFixture : ::testing::Test {
  CotsFixture()
      : em(&table),
        environment("box", env::rectangle_walls(20, 10, 8, 8, 8, 8)),
        tx({2, 5}, 0.0, &codebook),
        rx({10, 5}, 180.0, &codebook),
        link(&environment, &tx, &rx, budget()) {}

  static channel::LinkBudgetConfig budget() {
    channel::LinkBudgetConfig cfg;
    cfg.tx_power_dbm = 13.0;  // COTS-grade EIRP
    return cfg;
  }

  phy::McsTable table;
  phy::ErrorModel em;
  array::Codebook codebook;
  env::Environment environment;
  array::PhasedArray tx;
  array::PhasedArray rx;
  channel::Link link;
};

TEST_F(CotsFixture, AssociationPicksReasonableSector) {
  CotsDevice device(&link, &em);
  util::Rng rng(1);
  device.associate(rng);
  // The Rx sits straight ahead: the chosen sector steers near 0 degrees.
  const double steer =
      codebook.beam(device.tx_sector()).steering_deg();
  EXPECT_LT(std::abs(steer), 15.0);
}

TEST_F(CotsFixture, HealthyLinkDelivers) {
  CotsDevice device(&link, &em);
  util::Rng rng(2);
  device.associate(rng);
  double tput = 0.0;
  for (int i = 0; i < 300; ++i) tput += device.step(rng).throughput_mbps;
  EXPECT_GT(tput / 300, 500.0);
}

TEST_F(CotsFixture, BlockageTriggersAdaptation) {
  CotsDeviceConfig cfg;
  cfg.ba_after_ack_losses = 2;
  CotsDevice device(&link, &em, cfg);
  util::Rng rng(3);
  device.associate(rng);
  for (int i = 0; i < 50; ++i) device.step(rng);
  const phy::McsIndex before = device.mcs();
  environment.add_blocker({{6, 5}, 0.3, 35.0});
  int ba_triggers = 0;
  for (int i = 0; i < 200; ++i) ba_triggers += device.step(rng).ba_triggered;
  EXPECT_GT(ba_triggers, 0);
  EXPECT_LE(device.mcs(), before);
}

TEST_F(CotsFixture, LockedSectorNeverSweeps) {
  CotsDevice device(&link, &em);
  util::Rng rng(4);
  device.lock_sector(12);
  environment.add_blocker({{6, 5}, 0.3, 35.0});
  for (int i = 0; i < 300; ++i) {
    const auto log = device.step(rng);
    EXPECT_FALSE(log.ba_triggered);
    EXPECT_EQ(log.tx_sector, 12);
  }
}

TEST_F(CotsFixture, TimeAdvancesPerFrame) {
  CotsDevice device(&link, &em);
  util::Rng rng(5);
  device.lock_sector(12);
  const double t0 = device.time_ms();
  device.step(rng);
  EXPECT_NEAR(device.time_ms() - t0, 10.0, 1e-9);
}

TEST_F(CotsFixture, NullDependenciesThrow) {
  EXPECT_THROW(CotsDevice(nullptr, &em), std::invalid_argument);
  EXPECT_THROW(CotsDevice(&link, nullptr), std::invalid_argument);
}

}  // namespace
}  // namespace libra::core
