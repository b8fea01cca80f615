// Fault injection & the degradation ladder (faults/faults.h, the
// observe/decide/apply seams of core::LinkController, sim/golden.h):
//
//   - property fuzz: randomized FaultPlans over mixed fleets never crash,
//     never leave the MCS/action/goodput domain, and replay bit-for-bit
//     from (fleet_seed, fault_seed);
//   - differential degradation: a LiBRA fleet under a 100% classifier
//     outage is frame-for-frame the RA-first heuristic fleet;
//   - empty/zero plans are bit-identical to an unfaulted run, and faulted
//     runs are invariant to the forest thread count;
//   - a golden digest pins the canonical faulted run against regressions;
//   - non-finite inputs are rejected (or demoted, per policy) at every
//     layer: extract_features, classify, classify_batch.
#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <limits>
#include <utility>
#include <vector>

#include "core/controller.h"
#include "env/registry.h"
#include "faults/faults.h"
#include "sim/fleet.h"
#include "sim/fleet_world.h"
#include "sim/golden.h"
#include "test_helpers.h"

namespace libra {
namespace {

using libra::testing::expect_fleets_identical;
using libra::testing::make_record;

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

// Who drives the fleet's stations: the mix of 2 LiBRA + 1 RA-first, or
// every station on one heuristic.
enum class Policy { kMixed, kRaFirst, kBaFirst };

// A 3-station fleet in the lobby with per-station impairments.
sim::FleetResult run_mixed_fleet(const core::LibraClassifier* clf,
                                 std::uint64_t fleet_seed,
                                 const faults::FaultPlan& plan,
                                 Policy policy = Policy::kMixed) {
  const core::LibraClassifier* c0 = policy == Policy::kMixed ? clf : nullptr;
  std::vector<sim::StationSpec> specs(3);
  specs[0] = {{10, 6}, c0, {}};
  specs[0].script.blockage.push_back({400.0, 900.0, {{6, 6}, 0.3, 35.0}});
  specs[1] = {{12, 7}, c0, {}};
  specs[1].script.rx_trajectory =
      sim::Trajectory::walk({12, 7}, {17, 8}, 1200.0, geom::Vec2{2, 6});
  specs[2] = {{9, 5}, nullptr, {}};
  specs[2].script.interference.push_back(
      {300.0, 900.0, {{10, 1}, 50.0, 0.5}});
  for (sim::StationSpec& spec : specs) spec.script.duration_ms = 1200.0;
  const array::Codebook codebook;
  const sim::FleetWorld world(env::make_lobby(), {2, 6}, &codebook,
                              &sim::golden_error_model(), std::move(specs));
  sim::FleetConfig cfg;
  cfg.seed = fleet_seed;
  cfg.keep_frame_logs = true;
  cfg.faults = plan;
  if (policy == Policy::kBaFirst) {
    const libra::testing::BaFirstFleet ba = libra::testing::ba_first_fleet(
        world.members(), &sim::golden_error_model());
    return sim::run_fleet(ba.members, cfg);
  }
  return sim::run_fleet(world.members(), cfg);
}

// ---------- property fuzz ----------

// A random but always-valid FaultPlan: 1-6 windows of random kinds,
// probabilities, spans, and kind-appropriate magnitudes.
faults::FaultPlan random_plan(util::Rng& meta, std::uint64_t fault_seed) {
  faults::FaultPlan plan;
  plan.seed = fault_seed;
  const int n = meta.uniform_int(1, 6);
  for (int w = 0; w < n; ++w) {
    const auto kind = static_cast<faults::FaultKind>(
        meta.uniform_int(0, faults::kNumFaultKinds - 1));
    const double p = meta.bernoulli(0.25) ? 1.0 : meta.uniform(0.0, 1.0);
    const double start = meta.uniform(0.0, 1200.0);
    const double end = meta.bernoulli(0.2)
                           ? faults::kForever
                           : start + meta.uniform(50.0, 800.0);
    double magnitude = 0.0;
    if (kind == faults::FaultKind::kClockSkew) {
      magnitude = meta.uniform(-0.5, 0.5);
    } else if (kind == faults::FaultKind::kTruncateFeatures) {
      magnitude = meta.uniform(0.0, 1.0);
    }
    plan.add(kind, p, start, end, magnitude);
  }
  plan.validate();
  return plan;
}

void expect_result_in_domain(const sim::FleetResult& result) {
  const int top = sim::golden_error_model().table().max_mcs();
  for (std::size_t i = 0; i < result.links.size(); ++i) {
    const sim::SessionResult& link = result.links[i];
    EXPECT_GT(link.frames, 0) << "link " << i;
    EXPECT_TRUE(std::isfinite(link.bytes_mb)) << "link " << i;
    EXPECT_TRUE(std::isfinite(link.avg_goodput_mbps)) << "link " << i;
    EXPECT_GE(link.bytes_mb, 0.0) << "link " << i;
    for (std::size_t f = 0; f < link.frame_log.size(); ++f) {
      const core::FrameReport& r = link.frame_log[f];
      EXPECT_GE(r.mcs, 0) << "link " << i << " frame " << f;
      EXPECT_LE(r.mcs, top) << "link " << i << " frame " << f;
      EXPECT_TRUE(r.action == trace::Action::kBA ||
                  r.action == trace::Action::kRA ||
                  r.action == trace::Action::kNA)
          << "link " << i << " frame " << f;
      EXPECT_TRUE(std::isfinite(r.goodput_mbps))
          << "link " << i << " frame " << f;
      EXPECT_GE(r.goodput_mbps, 0.0) << "link " << i << " frame " << f;
    }
  }
}

// Seeded random FaultPlans over the mixed fleet: whatever the schedule
// throws at the pipeline, the run must stay in domain and replay
// bit-for-bit from (fleet_seed, fault_seed). Failing seed pairs are
// appended to faults_fuzz_failures.txt (uploaded as a CI artifact).
TEST(FaultsFuzz, RandomPlansStayInDomainAndReplay) {
  constexpr int kIterations = 8;
  util::Rng meta(20260805);
  for (int it = 0; it < kIterations; ++it) {
    const std::uint64_t fleet_seed = 100 + static_cast<std::uint64_t>(it);
    const std::uint64_t fault_seed =
        static_cast<std::uint64_t>(meta.uniform_int(1, 1 << 20));
    const faults::FaultPlan plan = random_plan(meta, fault_seed);
    SCOPED_TRACE("iteration " + std::to_string(it) + " fleet_seed " +
                 std::to_string(fleet_seed) + " fault_seed " +
                 std::to_string(fault_seed));

    const sim::FleetResult first =
        run_mixed_fleet(&sim::golden_classifier(), fleet_seed, plan);
    expect_result_in_domain(first);
    const sim::FleetResult replay =
        run_mixed_fleet(&sim::golden_classifier(), fleet_seed, plan);
    expect_fleets_identical(first, replay);

    if (::testing::Test::HasFailure()) {
      std::ofstream out("faults_fuzz_failures.txt", std::ios::app);
      out << "fleet_seed=" << fleet_seed << " fault_seed=" << fault_seed
          << " windows=" << plan.windows.size() << "\n";
      return;  // later iterations would only pile on noise
    }
  }
}

// ---------- differential degradation ----------

// Under a 100% classifier outage the LiBRA fleet must reduce exactly to
// the missing-ACK heuristic: frame-for-frame bit-identical to a fleet
// running RaFirstController from the start (the outage rung substitutes
// the same rule and neither path consumes any extra randomness).
TEST(FaultsDegradation, FullOutageReducesToRaFirstHeuristic) {
  faults::FaultPlan outage;
  outage.seed = 5;
  outage.add(faults::FaultKind::kClassifierOutage, 1.0);

  const sim::FleetResult degraded =
      run_mixed_fleet(&sim::golden_classifier(), 77, outage);
  const sim::FleetResult heuristic =
      run_mixed_fleet(nullptr, 77, faults::FaultPlan{}, Policy::kRaFirst);
  expect_fleets_identical(degraded, heuristic);
}

// ---------- identity & invariance ----------

// An empty plan must leave the run bit-identical to one with no fault
// machinery at all, and a plan whose windows can never fire (p = 0) must
// behave the same (its draws come from the disjoint fault stream) -- with
// a zero-probability window of every fault kind, under every policy. A
// non-empty plan is active(), so the fault seam synthesizes every frame's
// PDP eagerly where an unfaulted run defers it to the features: this is
// also the lazy-vs-eager PDP differential.
TEST(FaultsIdentity, EmptyAndZeroProbabilityPlansAreNoOps) {
  faults::FaultPlan zero;
  zero.seed = 9;
  for (int k = 0; k < faults::kNumFaultKinds; ++k) {
    zero.add(static_cast<faults::FaultKind>(k), 0.0);
  }
  for (const Policy policy :
       {Policy::kMixed, Policy::kRaFirst, Policy::kBaFirst}) {
    SCOPED_TRACE("policy " + std::to_string(static_cast<int>(policy)));
    const sim::FleetResult clean = run_mixed_fleet(
        &sim::golden_classifier(), 77, faults::FaultPlan{}, policy);
    const sim::FleetResult zeroed =
        run_mixed_fleet(&sim::golden_classifier(), 77, zero, policy);
    expect_fleets_identical(clean, zeroed);
  }
}

// Faulted runs obey the fleet determinism contract: the forest thread
// count must not change a single frame.
TEST(FaultsIdentity, FaultedRunInvariantToForestThreadCount) {
  const core::LibraClassifier serial = sim::make_golden_classifier(1);
  const core::LibraClassifier pooled = sim::make_golden_classifier(4);
  const faults::FaultPlan plan = faults::demo_plan(42);
  const sim::FleetResult a = run_mixed_fleet(&serial, 77, plan);
  const sim::FleetResult b = run_mixed_fleet(&pooled, 77, plan);
  expect_fleets_identical(a, b);
}

// ---------- golden digest ----------

// The canonical faulted run, pinned. If a deliberate behavior change moves
// this digest, refresh it with `build/tools/fault_digest` and paste the
// value it prints.
TEST(FaultsGolden, CanonicalDigestIsStable) {
  const sim::FleetResult result = sim::run_canonical_faulted_fleet(
      sim::kGoldenFleetSeed, sim::kGoldenFaultSeed);
  EXPECT_EQ(sim::degradation_digest(result), sim::kGoldenDigest);
  // And the digest derives from a real run: reruns agree.
  const sim::FleetResult again = sim::run_canonical_faulted_fleet(
      sim::kGoldenFleetSeed, sim::kGoldenFaultSeed);
  EXPECT_EQ(sim::degradation_digest(again), sim::degradation_digest(result));
}

// ---------- non-finite input rejection ----------

TEST(FaultsValidation, ExtractFeaturesRejectsNonFiniteMetrics) {
  trace::CaseRecord rec = make_record(6, 4, 5);
  rec.new_at_init_pair.snr_db = kNan;
  EXPECT_THROW(trace::extract_features(rec), std::invalid_argument);

  rec = make_record(6, 4, 5);
  rec.init_best.noise_dbm = kInf;
  EXPECT_THROW(trace::extract_features(rec), std::invalid_argument);

  // Control: the untouched record extracts fine.
  const trace::FeatureVector f = trace::extract_features(make_record(6, 4, 5));
  for (const double v : f.v) EXPECT_TRUE(std::isfinite(v));
}

TEST(FaultsValidation, ExtractFeaturesRejectsTruncatedCdrVector) {
  trace::CaseRecord rec = make_record(6, 4, 5);
  // Chop the per-MCS CDR vector below init_mcs: the lookup must throw, not
  // read out of bounds.
  faults::truncate_record_cdr(rec, 3);
  EXPECT_THROW(trace::extract_features(rec), std::invalid_argument);
  faults::truncate_record_cdr(rec, 0);
  EXPECT_THROW(trace::extract_features(rec), std::invalid_argument);
}

TEST(FaultsValidation, ClassifyRejectsNonFiniteFeatures) {
  const core::LibraClassifier& clf = sim::golden_classifier();
  trace::FeatureVector bad;
  bad.v = {1.0, 2.0, kNan, 0.5, 0.5, 0.9, 6.0};
  util::Rng rng(3);
  EXPECT_THROW(clf.classify(bad, rng), std::invalid_argument);

  std::vector<trace::FeatureVector> rows(2);
  rows[0].v = {1.0, 2.0, 3.0, 0.5, 0.5, 0.9, 6.0};
  rows[1].v = {1.0, kInf, 3.0, 0.5, 0.5, 0.9, 6.0};
  util::Rng r0(4), r1(5);
  std::vector<util::Rng*> rngs{&r0, &r1};
  try {
    clf.classify_batch(rows, rngs);
    FAIL() << "classify_batch accepted a non-finite row";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("row 1"), std::string::npos)
        << e.what();
  }
}

TEST(FaultsValidation, FallbackPolicyDemotesNonFiniteRowsToNoAdaptation) {
  core::LibraClassifierConfig cfg;
  cfg.forest.num_threads = 1;
  cfg.non_finite_policy = core::NonFiniteFeaturePolicy::kFallbackNA;
  core::LibraClassifier clf(cfg);
  {
    trace::Dataset ds;
    for (int i = 0; i < 10; ++i) {
      trace::CaseRecord ba = make_record(4, -1, 4);
      ba.new_at_init_pair.snr_db = 5.0;
      ds.records.push_back(ba);
      trace::CaseRecord na = make_record(6, 6, 6);
      na.forced_na = true;
      ds.na_records.push_back(na);
    }
    util::Rng rng(1);
    clf.train(ds, {}, rng);
  }
  trace::FeatureVector bad;
  bad.v = {kNan, 0.0, 0.0, 1.0, 1.0, 0.95, 6.0};
  util::Rng rng(3);
  EXPECT_EQ(clf.classify(bad, rng), trace::Action::kNA);

  // In a batch the poisoned row is demoted without consuming its stream's
  // draws and without disturbing the other rows' verdicts.
  trace::FeatureVector good;
  good.v = {15.0, 1000.0, 0.0, 0.0, 0.0, 0.0, 4.0};
  std::vector<trace::FeatureVector> rows{good, bad, good};
  util::Rng r0(4), r1(5), r2(4);
  std::vector<util::Rng*> rngs{&r0, &r1, &r2};
  const std::vector<trace::Action> verdicts = clf.classify_batch(rows, rngs);
  ASSERT_EQ(verdicts.size(), 3u);
  EXPECT_EQ(verdicts[1], trace::Action::kNA);
  // Rows 0 and 2 started from identical streams (seed 4) and identical
  // features; the dead middle row must not have skewed either.
  EXPECT_EQ(verdicts[0], verdicts[2]);
}

// ---------- plan validation ----------

TEST(FaultsValidation, PlanValidateRejectsMalformedWindows) {
  faults::FaultPlan p;
  p.add(faults::FaultKind::kDropAck, 1.5);
  EXPECT_THROW(p.validate(), std::invalid_argument);

  p.windows.clear();
  p.add(faults::FaultKind::kDropAck, -0.1);
  EXPECT_THROW(p.validate(), std::invalid_argument);

  p.windows.clear();
  p.add(faults::FaultKind::kStalePhy, 0.5, 500.0, 100.0);  // inverted
  EXPECT_THROW(p.validate(), std::invalid_argument);

  p.windows.clear();
  p.add(faults::FaultKind::kStalePhy, 0.5, kNan, 100.0);
  EXPECT_THROW(p.validate(), std::invalid_argument);

  p.windows.clear();
  p.add(faults::FaultKind::kClockSkew, 1.0, 0.0, faults::kForever, -1.0);
  EXPECT_THROW(p.validate(), std::invalid_argument);

  p.windows.clear();
  p.add(faults::FaultKind::kTruncateFeatures, 1.0, 0.0, faults::kForever, 1.5);
  EXPECT_THROW(p.validate(), std::invalid_argument);

  // The shipped demo plan must of course be valid.
  EXPECT_NO_THROW(faults::demo_plan(7).validate());

  // And run_fleet validates up front.
  faults::FaultPlan bad;
  bad.add(faults::FaultKind::kDropAck, 2.0);
  EXPECT_THROW(run_mixed_fleet(&sim::golden_classifier(), 77, bad),
               std::invalid_argument);
}

TEST(FaultsValidation, HelpersPoisonAndTruncateObservations) {
  phy::PhyObservation obs;
  obs.snr_db = 20.0;
  obs.noise_dbm = -74.0;
  obs.cdr = 0.9;
  obs.throughput_mbps = 1000.0;
  obs.tof_ns = 20.0;
  obs.pdp.assign(64, 1e-9);
  obs.csi.assign(32, 1.0);

  phy::PhyObservation poisoned = obs;
  faults::corrupt_observation(poisoned);
  EXPECT_TRUE(std::isnan(poisoned.snr_db));
  EXPECT_TRUE(std::isinf(poisoned.noise_dbm));
  EXPECT_FALSE(poisoned.tof_ns.has_value());

  phy::PhyObservation chopped = obs;
  faults::truncate_observation(chopped, 0.25);
  EXPECT_EQ(chopped.pdp.size(), 16u);
  EXPECT_EQ(chopped.csi.size(), 8u);
  faults::truncate_observation(chopped, 0.0);  // at least one tap survives
  EXPECT_EQ(chopped.pdp.size(), 1u);
  EXPECT_EQ(chopped.csi.size(), 1u);
}

}  // namespace
}  // namespace libra
