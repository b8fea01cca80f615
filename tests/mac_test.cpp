#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "env/registry.h"
#include "mac/ack.h"
#include "mac/beacon_interval.h"
#include "mac/csma.h"
#include "mac/beam_training.h"
#include "mac/timing.h"
#include "phy/sampler.h"
#include "util/rng.h"

namespace libra::mac {
namespace {

// ---------- timing ----------

TEST(Timing, TdmaFrameStructure) {
  EXPECT_DOUBLE_EQ(kTdmaFrameMs, 10.0);
  EXPECT_EQ(kTdmaCodewordsPerFrame, 9200);
  EXPECT_NEAR(kTdmaSlotsPerFrame * kTdmaSlotUs / 1000.0, kTdmaFrameMs, 1e-9);
}

TEST(Timing, WorstCaseDelayFormula) {
  // Dmax = N*FAT + dBA + N*FAT (Sec. 5.2).
  EXPECT_DOUBLE_EQ(worst_case_delay_ms(9, 10.0, 5.0), 185.0);
  EXPECT_DOUBLE_EQ(worst_case_delay_ms(9, 2.0, 250.0), 286.0);
}

TEST(Timing, AlphaFollowsBaOverhead) {
  // Sec. 8.1: alpha = 0.7 for cheap BA, 0.5 for expensive BA.
  EXPECT_DOUBLE_EQ(alpha_for_ba_overhead(0.5), 0.7);
  EXPECT_DOUBLE_EQ(alpha_for_ba_overhead(5.0), 0.7);
  EXPECT_DOUBLE_EQ(alpha_for_ba_overhead(150.0), 0.5);
  EXPECT_DOUBLE_EQ(alpha_for_ba_overhead(250.0), 0.5);
}

TEST(Timing, PaperParameterGrids) {
  EXPECT_EQ(std::size(kBaOverheadsMs), 4u);
  EXPECT_EQ(std::size(kFatsMs), 2u);
}

// ---------- beacon-interval / SSW timing ----------

TEST(BeaconInterval, SectorsForBeamwidth) {
  EXPECT_EQ(sectors_for_beamwidth(360.0, 30.0), 12);
  EXPECT_EQ(sectors_for_beamwidth(360.0, 7.0), 52);  // ceil(51.4)
  EXPECT_EQ(sectors_for_beamwidth(120.0, 5.0), 24);
  EXPECT_THROW(sectors_for_beamwidth(360.0, 0.0), std::invalid_argument);
}

TEST(BeaconInterval, SlsDurationScalesLinearly) {
  const double d12 = sls_duration_ms(12);
  const double d24 = sls_duration_ms(24);
  EXPECT_GT(d24, 1.8 * d12);
  EXPECT_LT(d24, 2.2 * d12);
  EXPECT_THROW(sls_duration_ms(0), std::invalid_argument);
}

TEST(BeaconInterval, FullSlsCoversBothSides) {
  EXPECT_GT(full_sls_duration_ms(12, 12), sls_duration_ms(12));
  // Sec. 8.1 anchor: 30-degree beams (12 sectors over 360) land near the
  // paper's 0.5 ms; 3-degree beams near 5 ms.
  EXPECT_NEAR(full_sls_duration_ms(12, 12), 0.5, 0.15);
  EXPECT_NEAR(full_sls_duration_ms(120, 120), 5.0, 1.2);
}

TEST(BeaconInterval, ExhaustiveScalesQuadratically) {
  const double d10 = exhaustive_duration_ms(10, 10);
  const double d20 = exhaustive_duration_ms(20, 20);
  EXPECT_GT(d20, 3.5 * d10);
  EXPECT_LT(d20, 4.5 * d10);
}

TEST(BeaconInterval, AbftContention) {
  EXPECT_DOUBLE_EQ(expected_abft_intervals(1), 1.0);
  // More contenders => more expected beacon intervals, monotonically.
  double prev = 1.0;
  for (int n = 2; n <= 16; ++n) {
    const double e = expected_abft_intervals(n);
    EXPECT_GT(e, prev);
    prev = e;
  }
  EXPECT_THROW(expected_abft_intervals(0), std::invalid_argument);
}

// ---------- ACK model ----------

TEST(AckModel, HighSnrAlwaysAcks) {
  const phy::McsTable t;
  const phy::ErrorModel em(&t);
  const AckModel ack(&em);
  EXPECT_NEAR(ack.ack_probability(0, 30.0), 1.0, 1e-9);
}

TEST(AckModel, DeepFadeLosesAck) {
  const phy::McsTable t;
  const phy::ErrorModel em(&t);
  const AckModel ack(&em);
  EXPECT_LT(ack.ack_probability(8, 0.0), 0.01);
}

TEST(AckModel, AckIsLostOnlyWhenEverySubframeFails) {
  const phy::McsTable t;
  const phy::ErrorModel em(&t);
  const AckModel ack(&em);
  const double snr = t.entry(4).snr_threshold_db - 1.0;
  const double p = em.codeword_success_prob(4, snr);
  EXPECT_DOUBLE_EQ(ack.ack_probability(4, snr),
                   1.0 - std::pow(1.0 - p, kAckSubframes));
  // Losing one subframe is likely, losing all of them is not.
  EXPECT_GT(ack.ack_probability(4, snr), p);
}

TEST(AckModel, NullErrorModelThrows) {
  EXPECT_THROW(AckModel(nullptr), std::invalid_argument);
}

// ---------- CSMA / hidden terminal ----------

TEST(Csma, UnthrottledDutyScalesWithLoad) {
  EXPECT_DOUBLE_EQ(unthrottled_duty(0.0), 0.0);
  EXPECT_GT(unthrottled_duty(1.0), 0.95);  // airtime dominates contention
  EXPECT_NEAR(unthrottled_duty(0.5), 0.5 * unthrottled_duty(1.0), 1e-12);
  EXPECT_THROW(unthrottled_duty(1.5), std::invalid_argument);
}

TEST(Csma, SensingSerializesInterference) {
  EXPECT_DOUBLE_EQ(interference_duty(true, 0.8), 0.0);
  EXPECT_GT(interference_duty(false, 0.8), 0.7);
}

TEST(Csma, DirectionalDeafnessCreatesHiddenTerminal) {
  // Victim Tx and an interferer in a box; the interferer listens quasi-omni.
  phy::McsTable table;
  phy::ErrorModel em(&table);
  env::Environment box("box", env::rectangle_walls(20, 10, 8, 8, 8, 8));
  array::Codebook codebook;
  array::PhasedArray victim_tx({2, 5}, 0.0, &codebook);
  array::PhasedArray interferer({18, 5}, 180.0, &codebook);
  channel::Link towards(&box, &victim_tx, &interferer);
  // The victim beams straight at the interferer: easily sensed.
  EXPECT_TRUE(can_sense(towards, 12, array::kQuasiOmni));
  // The victim beams 60 degrees away: only side lobes reach the
  // interferer and sensing fails -> hidden terminal.
  EXPECT_FALSE(can_sense(towards, 0, array::kQuasiOmni));
}

TEST(Csma, DutyCoversTheDatasetLevels) {
  // The three calibrated interference levels (20/50/80% throughput drop)
  // correspond to offered loads ~0.2/0.5/0.8 of a deaf interferer.
  for (double load : {0.2, 0.5, 0.8}) {
    EXPECT_NEAR(interference_duty(false, load), load, 0.03);
  }
}

// ---------- beam training ----------

struct TrainerFixture : ::testing::Test {
  TrainerFixture()
      : em(&table),
        environment("box", env::rectangle_walls(20, 10, 8, 8, 8, 8)),
        tx({2, 5}, 0.0, &codebook),
        rx({18, 5}, 180.0, &codebook),
        link(&environment, &tx, &rx),
        sampler(&em, low_noise()) {}

  static phy::SamplerConfig low_noise() {
    phy::SamplerConfig cfg;
    cfg.snr_jitter_db = 0.01;  // near-noiseless probes for determinism
    return cfg;
  }

  phy::McsTable table;
  phy::ErrorModel em;
  array::Codebook codebook;
  env::Environment environment;
  array::PhasedArray tx;
  array::PhasedArray rx;
  channel::Link link;
  phy::PhySampler sampler;
};

TEST_F(TrainerFixture, ExhaustiveFindsAlignedPair) {
  const BeamTrainer trainer;
  util::Rng rng(1);
  const SweepResult r = trainer.exhaustive(link, sampler, rng);
  // The Tx looks straight at the Rx (beam 12 steers 0 degrees) and vice
  // versa; allow one beam of slack for side-lobe quirks.
  EXPECT_NEAR(r.tx_beam, 12, 1);
  EXPECT_NEAR(r.rx_beam, 12, 1);
  EXPECT_EQ(r.measurements, 625);
  EXPECT_NEAR(r.snr_db, link.snr_db(r.tx_beam, r.rx_beam), 0.5);
}

TEST_F(TrainerFixture, SlsMeasuresTwoSweeps) {
  const BeamTrainer trainer;
  util::Rng rng(2);
  const SweepResult r = trainer.sls_80211ad(link, sampler, rng);
  EXPECT_EQ(r.measurements, 50);
  EXPECT_NEAR(r.tx_beam, 12, 1);
  EXPECT_NEAR(r.rx_beam, 12, 1);
}

TEST_F(TrainerFixture, TxOnlySweepUsesQuasiOmni) {
  const BeamTrainer trainer;
  util::Rng rng(3);
  const SweepResult r = trainer.sls_tx_only(link, sampler, rng);
  EXPECT_EQ(r.measurements, 25);
  EXPECT_EQ(r.rx_beam, array::kQuasiOmni);
  EXPECT_NEAR(r.tx_beam, 12, 1);
}

TEST_F(TrainerFixture, SweepDurationsScaleWithProbes) {
  const BeamTrainer trainer;
  util::Rng rng(4);
  const auto exhaustive = trainer.exhaustive(link, sampler, rng);
  const auto sls = trainer.sls_80211ad(link, sampler, rng);
  const auto tx_only = trainer.sls_tx_only(link, sampler, rng);
  const double probe_ms = kProbeUs / 1000.0;  // 0.02 ms
  EXPECT_DOUBLE_EQ(exhaustive.duration_ms, 625 * probe_ms);
  EXPECT_DOUBLE_EQ(sls.duration_ms, 50 * probe_ms);
  EXPECT_DOUBLE_EQ(tx_only.duration_ms, 25 * probe_ms);
  // The complexity ordering of Sec. 2: O(N^2) >> O(N) > O(N)/2.
  EXPECT_GT(exhaustive.duration_ms, sls.duration_ms);
  EXPECT_GT(sls.duration_ms, tx_only.duration_ms);
}

TEST_F(TrainerFixture, ExhaustiveAtLeastAsGoodAsSls) {
  const BeamTrainer trainer;
  util::Rng rng(5);
  const auto exhaustive = trainer.exhaustive(link, sampler, rng);
  const auto sls = trainer.sls_80211ad(link, sampler, rng);
  EXPECT_GE(link.snr_db(exhaustive.tx_beam, exhaustive.rx_beam) + 0.2,
            link.snr_db(sls.tx_beam, sls.rx_beam));
}

TEST_F(TrainerFixture, CoarseFineNearExhaustiveQuality) {
  const BeamTrainer trainer;
  util::Rng rng(7);
  const auto exhaustive = trainer.exhaustive(link, sampler, rng);
  const auto cf = trainer.coarse_fine(link, sampler, rng);
  // 12x fewer probes, within a fraction of a dB of the optimum.
  EXPECT_LE(cf.measurements, 55);
  EXPECT_GE(link.snr_db(cf.tx_beam, cf.rx_beam) + 0.8,
            link.snr_db(exhaustive.tx_beam, exhaustive.rx_beam));
}

TEST_F(TrainerFixture, CoarseFineProbeBudget) {
  const BeamTrainer trainer;
  util::Rng rng(8);
  // stride 5 -> 5x5 coarse; radius 2 -> up to 5x5 refine minus the center.
  const auto r = trainer.coarse_fine(link, sampler, rng, 5, 2);
  EXPECT_EQ(r.measurements, 25 + 24);
  // A wider stride shrinks the coarse level.
  const auto wide = trainer.coarse_fine(link, sampler, rng, 12, 1);
  EXPECT_LT(wide.measurements, r.measurements);
}

TEST_F(TrainerFixture, SweepTracksRotatedRx) {
  // Rotate the Rx by 45 degrees: the best Rx beam moves off center.
  rx.set_boresight_deg(135.0);
  link.refresh();
  const BeamTrainer trainer;
  util::Rng rng(6);
  const SweepResult r = trainer.exhaustive(link, sampler, rng);
  // The Tx->Rx arrival is at world 180; array frame 180-135=45 -> beam 21.
  EXPECT_NEAR(r.rx_beam, 21, 1);
}

// ---------- grid-backed sweeps vs a per-pair reference ----------

// One probe from the per-pair Link queries: the two SNRs averaged over the
// interferer duty, plus the probe jitter from the sweep's keyed stream.
double reference_probe(const channel::Link& link, const phy::PhySampler& s,
                       array::BeamId tb, array::BeamId rb,
                       util::KeyedNormals& jitter) {
  const double duty =
      link.interferer() ? link.interferer()->duty_cycle : 0.0;
  const double avg = (1.0 - duty) * link.snr_clean_db(tb, rb) +
                     duty * link.snr_db(tb, rb);
  return avg + s.config().snr_jitter_db * jitter.next();
}

// Probe (tb, rb) and keep it when it beats `best` on strict improvement.
void probe_into(SweepResult& best, const channel::Link& link,
                const phy::PhySampler& s, array::BeamId tb, array::BeamId rb,
                util::KeyedNormals& jitter) {
  const double snr = reference_probe(link, s, tb, rb, jitter);
  ++best.measurements;
  if (snr > best.snr_db) {
    best.snr_db = snr;
    best.tx_beam = tb;
    best.rx_beam = rb;
  }
}

// Every reference sweep keys its probe jitter by one raw draw of `rng`.
SweepResult reference_exhaustive(const channel::Link& link,
                                 const phy::PhySampler& s, util::Rng& rng) {
  util::KeyedNormals jitter(rng.raw());
  SweepResult best;
  best.snr_db = -1e9;
  const int n = link.tx().codebook().size();
  for (array::BeamId tb = 0; tb < n; ++tb) {
    for (array::BeamId rb = 0; rb < link.rx().codebook().size(); ++rb) {
      probe_into(best, link, s, tb, rb, jitter);
    }
  }
  return best;
}

SweepResult reference_tx_phase(const channel::Link& link,
                               const phy::PhySampler& s,
                               util::KeyedNormals& jitter) {
  SweepResult best;
  best.snr_db = -1e9;
  best.rx_beam = array::kQuasiOmni;
  for (array::BeamId tb = 0; tb < link.tx().codebook().size(); ++tb) {
    probe_into(best, link, s, tb, array::kQuasiOmni, jitter);
  }
  return best;
}

SweepResult reference_sls_tx_only(const channel::Link& link,
                                  const phy::PhySampler& s, util::Rng& rng) {
  util::KeyedNormals jitter(rng.raw());
  return reference_tx_phase(link, s, jitter);
}

SweepResult reference_sls_80211ad(const channel::Link& link,
                                  const phy::PhySampler& s, util::Rng& rng) {
  util::KeyedNormals jitter(rng.raw());
  SweepResult best = reference_tx_phase(link, s, jitter);
  SweepResult rx_phase;
  rx_phase.snr_db = -1e9;
  rx_phase.rx_beam = 0;
  for (array::BeamId rb = 0; rb < link.rx().codebook().size(); ++rb) {
    probe_into(rx_phase, link, s, best.tx_beam, rb, jitter);
  }
  best.rx_beam = rx_phase.rx_beam;
  best.snr_db = rx_phase.snr_db;
  best.measurements += rx_phase.measurements;
  return best;
}

SweepResult reference_coarse_fine(const channel::Link& link,
                                  const phy::PhySampler& s, util::Rng& rng,
                                  int stride, int radius) {
  util::KeyedNormals jitter(rng.raw());
  SweepResult best;
  best.snr_db = -1e9;
  const int n_tx = link.tx().codebook().size();
  const int n_rx = link.rx().codebook().size();
  for (array::BeamId tb = stride / 2; tb < n_tx; tb += stride) {
    for (array::BeamId rb = stride / 2; rb < n_rx; rb += stride) {
      probe_into(best, link, s, tb, rb, jitter);
    }
  }
  const array::BeamId ctx = best.tx_beam;
  const array::BeamId crx = best.rx_beam;
  for (array::BeamId tb = std::max(0, ctx - radius);
       tb <= std::min(n_tx - 1, ctx + radius); ++tb) {
    for (array::BeamId rb = std::max(0, crx - radius);
         rb <= std::min(n_rx - 1, crx + radius); ++rb) {
      if (tb == ctx && rb == crx) continue;
      probe_into(best, link, s, tb, rb, jitter);
    }
  }
  return best;
}

SweepResult reference_failover(const channel::Link& link,
                               const phy::PhySampler& s, util::Rng& rng,
                               array::BeamId primary_tx, int min_gap) {
  util::KeyedNormals jitter(rng.raw());
  SweepResult best;
  best.snr_db = -1e9;
  best.rx_beam = 0;
  for (array::BeamId tb = 0; tb < link.tx().codebook().size(); ++tb) {
    if (std::abs(tb - primary_tx) < min_gap) continue;
    for (array::BeamId rb = 0; rb < link.rx().codebook().size(); ++rb) {
      probe_into(best, link, s, tb, rb, jitter);
    }
  }
  return best;
}

void expect_same_sweep(const SweepResult& got, const SweepResult& want) {
  EXPECT_EQ(got.tx_beam, want.tx_beam);
  EXPECT_EQ(got.rx_beam, want.rx_beam);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got.snr_db),
            std::bit_cast<std::uint64_t>(want.snr_db));
  EXPECT_EQ(got.measurements, want.measurements);
}

using Sweep = std::function<SweepResult(util::Rng&)>;

// The four sweep kinds (coarse-fine at two strides) and the failover scan
// around Tx sector 0, as run by the trainer.
std::vector<std::pair<std::string, Sweep>> trainer_sweeps(
    const BeamTrainer& trainer, const channel::Link& link,
    const channel::BeamGrid& grid, const phy::PhySampler& sampler) {
  return {
      {"exhaustive",
       [&](util::Rng& r) { return trainer.exhaustive(link, sampler, r); }},
      {"sls_80211ad",
       [&](util::Rng& r) { return trainer.sls_80211ad(link, sampler, r); }},
      {"sls_tx_only",
       [&](util::Rng& r) { return trainer.sls_tx_only(link, sampler, r); }},
      {"coarse_fine 5/2",
       [&](util::Rng& r) { return trainer.coarse_fine(link, sampler, r); }},
      {"coarse_fine 7/3",
       [&](util::Rng& r) {
         return trainer.coarse_fine(link, sampler, r, 7, 3);
       }},
      {"failover",
       [&](util::Rng& r) { return trainer.failover(grid, sampler, r, 0, 3); }},
  };
}

// Each sweep, run on the trainer and on the reference from the same seed,
// must select the same pair with the same SNR bits and leave the Rng in the
// same state.
void expect_sweeps_match_reference(const channel::Link& link,
                                   const phy::PhySampler& sampler,
                                   std::uint64_t seed) {
  const BeamTrainer trainer;
  const channel::BeamGrid grid(link);
  const Sweep references[] = {
      [&](util::Rng& r) { return reference_exhaustive(link, sampler, r); },
      [&](util::Rng& r) { return reference_sls_80211ad(link, sampler, r); },
      [&](util::Rng& r) { return reference_sls_tx_only(link, sampler, r); },
      [&](util::Rng& r) {
        return reference_coarse_fine(link, sampler, r, 5, 2);
      },
      [&](util::Rng& r) {
        return reference_coarse_fine(link, sampler, r, 7, 3);
      },
      [&](util::Rng& r) { return reference_failover(link, sampler, r, 0, 3); },
  };
  const auto sweeps = trainer_sweeps(trainer, link, grid, sampler);
  ASSERT_EQ(sweeps.size(), std::size(references));
  for (std::size_t i = 0; i < sweeps.size(); ++i) {
    SCOPED_TRACE(sweeps[i].first);
    util::Rng got_rng(seed);
    util::Rng want_rng(seed);
    expect_same_sweep(sweeps[i].second(got_rng), references[i](want_rng));
    EXPECT_TRUE(got_rng.engine() == want_rng.engine());
  }
}

TEST(GridSweeps, MatchPerPairReferenceOnRegistryLinks) {
  // Default (not low-noise) probe jitter, so near-ties really are decided
  // by the jitter draws.
  const phy::McsTable table;
  const phy::ErrorModel em(&table);
  const phy::PhySampler sampler(&em);
  const array::Codebook codebook;
  env::Environment lab = env::make_lab();
  const env::Environment::BoundingBox bb = lab.bounding_box();
  util::Rng poses(21);
  for (int i = 0; i < 4; ++i) {
    SCOPED_TRACE("pose " + std::to_string(i));
    const geom::Vec2 tx_pos = lab.clamp_inside(
        {poses.uniform(bb.min.x, bb.max.x), poses.uniform(bb.min.y, bb.max.y)});
    const geom::Vec2 rx_pos = lab.clamp_inside(
        {poses.uniform(bb.min.x, bb.max.x), poses.uniform(bb.min.y, bb.max.y)});
    array::PhasedArray tx(tx_pos, poses.uniform(-180.0, 180.0), &codebook);
    array::PhasedArray rx(rx_pos, poses.uniform(-180.0, 180.0), &codebook);
    lab.clear_blockers();
    if (i >= 1) lab.add_blocker({(tx_pos + rx_pos) * 0.5, 0.3, 25.0});
    channel::Link link(&lab, &tx, &rx);
    if (i >= 2) link.set_fade_db(-2.5);
    if (i >= 3) {
      link.set_interferer(channel::Interferer{
          lab.clamp_inside(bb.min + (bb.max - bb.min) * 0.25), 30.0, 0.5});
    }
    expect_sweeps_match_reference(link, sampler, 100 + i);
  }
}

TEST_F(TrainerFixture, GridSweepsMatchPerPairReference) {
  expect_sweeps_match_reference(link, sampler, 9);
}

TEST_F(TrainerFixture, GridOverloadEqualsLinkOverload) {
  // A caller-built grid (the collector's initial sweep) sweeps exactly like
  // the Link overload's per-thread scratch grid.
  const BeamTrainer trainer;
  const channel::BeamGrid grid(link);
  util::Rng a(10), b(10);
  expect_same_sweep(trainer.exhaustive(grid, sampler, a),
                    trainer.exhaustive(link, sampler, b));
  EXPECT_TRUE(a.engine() == b.engine());
  util::KeyedNormals got(a.raw()), want(b.raw());
  for (array::BeamId rb = array::kQuasiOmni; rb < codebook.size(); ++rb) {
    EXPECT_EQ(
        std::bit_cast<std::uint64_t>(sampler.measure_snr_db(grid, 3, rb, got)),
        std::bit_cast<std::uint64_t>(
            reference_probe(link, sampler, 3, rb, want)));
  }
}

// ---------- the sweep draw contract ----------

// Every sweep makes exactly one link-stream draw (its jitter key), however
// many probes it takes: the caller's Rng ends where one raw() leaves it.
TEST(SweepDraws, EverySweepMakesOneLinkStreamDraw) {
  const phy::McsTable table;
  const phy::ErrorModel em(&table);
  const phy::PhySampler sampler(&em);
  const env::Environment room("box", env::rectangle_walls(20, 10, 8, 8, 8, 8));
  for (const int beams : {5, 25}) {
    array::CodebookConfig cfg;
    cfg.num_beams = beams;
    const array::Codebook codebook(cfg);
    array::PhasedArray tx({2, 5}, 0.0, &codebook);
    array::PhasedArray rx({18, 5}, 180.0, &codebook);
    const channel::Link link(&room, &tx, &rx);
    const channel::BeamGrid grid(link);
    const BeamTrainer trainer;
    for (const auto& [name, sweep] :
         trainer_sweeps(trainer, link, grid, sampler)) {
      SCOPED_TRACE(name + " at " + std::to_string(beams) + " beams");
      util::Rng swept(77);
      util::Rng one_draw(77);
      const SweepResult r = sweep(swept);
      EXPECT_GT(r.measurements, 1);
      one_draw.raw();
      EXPECT_TRUE(swept.engine() == one_draw.engine());
    }
  }
}

}  // namespace
}  // namespace libra::mac
