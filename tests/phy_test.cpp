#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <initializer_list>
#include <string>
#include <utility>
#include <vector>

#include "channel/link.h"
#include "env/registry.h"
#include "phy/error_model.h"
#include "phy/mcs.h"
#include "phy/pdp.h"
#include "phy/sampler.h"
#include "util/units.h"

namespace libra::phy {
namespace {

// ---------- MCS table ----------

TEST(McsTable, DefaultHasNineEntries) {
  const McsTable t;
  EXPECT_EQ(t.size(), 9);
  EXPECT_DOUBLE_EQ(t.rate_mbps(0), 300.0);
  EXPECT_DOUBLE_EQ(t.max_rate_mbps(), 4750.0);
}

TEST(McsTable, RatesAndThresholdsMonotonic) {
  const McsTable t;
  for (int m = 1; m < t.size(); ++m) {
    EXPECT_GT(t.rate_mbps(m), t.rate_mbps(m - 1));
    EXPECT_GT(t.entry(m).snr_threshold_db, t.entry(m - 1).snr_threshold_db);
  }
}

TEST(McsTable, HighestSupported) {
  const McsTable t;
  EXPECT_EQ(t.highest_supported(-10.0), -1);
  EXPECT_EQ(t.highest_supported(3.0), 0);
  EXPECT_EQ(t.highest_supported(100.0), 8);
  EXPECT_EQ(t.highest_supported(t.entry(4).snr_threshold_db), 4);
}

TEST(McsTable, OutOfRangeThrows) {
  const McsTable t;
  EXPECT_THROW(t.entry(-1), std::out_of_range);
  EXPECT_THROW(t.entry(9), std::out_of_range);
}

TEST(McsTable, EmptyTableThrows) {
  EXPECT_THROW(McsTable(std::vector<McsEntry>{}), std::invalid_argument);
}

TEST(McsTable, Ieee80211adTable) {
  const McsTable t = ieee80211ad_sc_table();
  EXPECT_EQ(t.size(), 12);
  EXPECT_DOUBLE_EQ(t.rate_mbps(0), 385.0);
  EXPECT_DOUBLE_EQ(t.max_rate_mbps(), 4620.0);
}

TEST(McsTable, CodewordSizesInX60Range) {
  const McsTable t;
  for (const auto& e : t.entries()) {
    EXPECT_GE(e.codeword_bytes, 180);
    EXPECT_LE(e.codeword_bytes, 1080);
  }
}

// ---------- error model ----------

TEST(ErrorModel, HalfSuccessAtThreshold) {
  const McsTable t;
  const ErrorModel em(&t);
  for (int m = 0; m < t.size(); ++m) {
    EXPECT_NEAR(em.codeword_success_prob(m, t.entry(m).snr_threshold_db), 0.5,
                1e-9);
  }
}

TEST(ErrorModel, NinetyPercentAtOneWidthAbove) {
  const McsTable t;
  ErrorModelConfig cfg;
  const ErrorModel em(&t, cfg);
  EXPECT_NEAR(em.codeword_success_prob(
                  0, t.entry(0).snr_threshold_db + cfg.waterfall_width_db),
              0.9, 1e-6);
}

TEST(ErrorModel, MonotonicInSnr) {
  const McsTable t;
  const ErrorModel em(&t);
  double prev = 0.0;
  for (double snr = -10.0; snr < 40.0; snr += 0.5) {
    const double p = em.codeword_success_prob(4, snr);
    EXPECT_GE(p, prev);
    prev = p;
  }
}

TEST(ErrorModel, ThroughputCapsAtFramingEfficiency) {
  const McsTable t;
  const ErrorModel em(&t);
  const double tput = em.expected_throughput_mbps(8, 100.0);
  EXPECT_NEAR(tput, 4750.0 * kFramingEfficiency, 1e-6);
}

TEST(ErrorModel, LowerMcsWinsBelowThreshold) {
  const McsTable t;
  const ErrorModel em(&t);
  // 1 dB below MCS 5's threshold, MCS 4 out-delivers MCS 5.
  const double snr = t.entry(5).snr_threshold_db - 1.0;
  EXPECT_GT(em.expected_throughput_mbps(4, snr),
            em.expected_throughput_mbps(5, snr));
}

TEST(ErrorModel, InvalidConfigThrows) {
  const McsTable t;
  EXPECT_THROW(ErrorModel(nullptr), std::invalid_argument);
  ErrorModelConfig bad;
  bad.waterfall_width_db = 0.0;
  EXPECT_THROW(ErrorModel(&t, bad), std::invalid_argument);
}

class McsSweep : public ::testing::TestWithParam<int> {};

TEST_P(McsSweep, ThroughputUnimodalOverLadder) {
  // At any SNR, expected throughput as a function of MCS rises then falls:
  // there is a single best MCS (what RA searches for).
  const McsTable t;
  const ErrorModel em(&t);
  const double snr = 2.0 + GetParam() * 3.0;
  int direction_changes = 0;
  double prev = em.expected_throughput_mbps(0, snr);
  bool rising = true;
  for (int m = 1; m < t.size(); ++m) {
    const double cur = em.expected_throughput_mbps(m, snr);
    if (rising && cur < prev) {
      rising = false;
      ++direction_changes;
    } else if (!rising && cur > prev + 1e-9) {
      ++direction_changes;
    }
    prev = cur;
  }
  EXPECT_LE(direction_changes, 1);
}

INSTANTIATE_TEST_SUITE_P(SnrGrid, McsSweep, ::testing::Range(0, 10));

// ---------- PDP ----------

// A PDP built the way the sampler builds one: the measurement floor on
// every tap, then add_path_to_pdp per (power dBm, delay ns) path, in order.
std::vector<double> pdp_of(
    std::initializer_list<std::pair<double, double>> paths,
    const PdpConfig& cfg = {}) {
  std::vector<double> pdp(static_cast<std::size_t>(kPdpTaps),
                          cfg.noise_floor_mw);
  for (const auto& [power_dbm, delay_ns] : paths) {
    add_path_to_pdp(pdp, delay_ns, util::dbm_to_mw(power_dbm));
  }
  return pdp;
}

TEST(Pdp, TapsAtPathDelays) {
  PdpConfig cfg;
  const auto pdp = pdp_of({{-50.0, 20.0}, {-60.0, 45.0}}, cfg);
  ASSERT_EQ(static_cast<int>(pdp.size()), kPdpTaps);
  EXPECT_NEAR(pdp[20], util::dbm_to_mw(-50.0), util::dbm_to_mw(-50.0) * 0.01);
  EXPECT_NEAR(pdp[45], util::dbm_to_mw(-60.0), util::dbm_to_mw(-60.0) * 0.01);
  EXPECT_NEAR(pdp[100], cfg.noise_floor_mw, cfg.noise_floor_mw * 0.01);
}

TEST(Pdp, OutOfWindowPathsDropped) {
  // 1 ms delay: far outside the window.
  const auto pdp = pdp_of({{-50.0, 1e6}});
  for (double tap : pdp) EXPECT_LE(tap, 2e-12);
}

TEST(Pdp, CoincidentPathsAddPower) {
  // Two paths that land on the same tap after rounding.
  const auto pdp = pdp_of({{-50.0, 20.0}, {-50.0, 20.2}});
  EXPECT_NEAR(pdp[20], 2.0 * util::dbm_to_mw(-50.0),
              util::dbm_to_mw(-50.0) * 0.02);
}

TEST(Pdp, TofIsStrongestTap) {
  // The second path is stronger and later.
  const auto pdp = pdp_of({{-55.0, 30.0}, {-45.0, 60.0}});
  const auto tof = time_of_flight_ns(pdp, {});
  ASSERT_TRUE(tof.has_value());
  EXPECT_DOUBLE_EQ(*tof, 60.0);
}

TEST(Pdp, TofInfinityWhenNoSignal) {
  PdpConfig cfg;
  cfg.noise_floor_mw = 1e-9;
  const auto pdp = pdp_of({{-95.0, 30.0}}, cfg);
  EXPECT_FALSE(time_of_flight_ns(pdp, cfg).has_value());
}

TEST(Pdp, EmptyPdpHasNoTof) {
  EXPECT_FALSE(time_of_flight_ns({}, {}).has_value());
}

TEST(Pdp, CsiHasHalfSpectrumSize) {
  std::vector<double> pdp(256, 1e-12);
  pdp[10] = 1e-6;
  const auto csi = csi_from_pdp(pdp);
  EXPECT_EQ(csi.size(), 128u);
}

// ---------- sampler ----------

struct SamplerFixture : ::testing::Test {
  SamplerFixture()
      : em(&table),
        environment("box", env::rectangle_walls(20, 10, 8, 8, 8, 8)),
        tx({2, 5}, 0.0, &codebook),
        rx({12, 5}, 180.0, &codebook),
        link(&environment, &tx, &rx),
        sampler(&em) {}

  McsTable table;
  ErrorModel em;
  array::Codebook codebook;
  env::Environment environment;
  array::PhasedArray tx;
  array::PhasedArray rx;
  channel::Link link;
  PhySampler sampler;
};

TEST_F(SamplerFixture, ObservationNearTruth) {
  util::Rng rng(1);
  const auto obs = sampler.observe(link, 12, 12, 4, rng);
  EXPECT_NEAR(obs.snr_db, link.snr_db(12, 12), 2.0);
  EXPECT_NEAR(obs.noise_dbm, link.noise_floor_dbm(12), 6.0);
  EXPECT_TRUE(obs.tof_ns.has_value());
  EXPECT_EQ(obs.mcs, 4);
  EXPECT_GE(obs.cdr, 0.0);
  EXPECT_LE(obs.cdr, 1.0);
}

TEST_F(SamplerFixture, ThroughputConsistentWithCdr) {
  util::Rng rng(1);
  const auto obs = sampler.observe(link, 12, 12, 3, rng);
  EXPECT_NEAR(obs.throughput_mbps,
              table.rate_mbps(3) * obs.cdr * kFramingEfficiency,
              1e-9);
}

TEST_F(SamplerFixture, DeterministicUnderSameSeed) {
  util::Rng rng1(5), rng2(5);
  const auto a = sampler.observe(link, 12, 12, 4, rng1);
  const auto b = sampler.observe(link, 12, 12, 4, rng2);
  EXPECT_DOUBLE_EQ(a.snr_db, b.snr_db);
  EXPECT_DOUBLE_EQ(a.cdr, b.cdr);
  EXPECT_EQ(a.pdp, b.pdp);
}

TEST_F(SamplerFixture, TofMatchesLosDistance) {
  util::Rng rng(2);
  const auto obs = sampler.observe(link, 12, 12, 0, rng);
  ASSERT_TRUE(obs.tof_ns.has_value());
  EXPECT_NEAR(*obs.tof_ns, 10.0 / 0.299792458, 1.5);
}

TEST_F(SamplerFixture, MisalignedBeamsLoseTof) {
  util::Rng rng(2);
  // Rx beam pointing backwards: backlobe-only reception, SNR below the
  // detection floor -> ToF reported as infinity (nullopt).
  rx.set_boresight_deg(0.0);  // boresight away from Tx
  link.refresh();
  const auto obs = sampler.observe(link, 12, 24, 0, rng);
  EXPECT_FALSE(obs.tof_ns.has_value());
}

TEST_F(SamplerFixture, BurstyInterferenceMixesCdr) {
  util::Rng rng(3);
  const auto clean = sampler.observe(link, 12, 12, 4, rng);
  ASSERT_GT(clean.cdr, 0.95);
  // Jamming interferer with 40% duty: expected CDR ~ 0.6 * clean.
  link.set_interferer(channel::Interferer{{12, 1}, 60.0, 0.4});
  util::Rng rng2(3);
  const auto jammed = sampler.observe(link, 12, 12, 4, rng2);
  EXPECT_NEAR(jammed.cdr, 0.6 * clean.cdr, 0.08);
}

TEST_F(SamplerFixture, SweepSnrAveragesDuty) {
  util::Rng rng(4);
  const double clean = link.snr_clean_db(12, 12);
  link.set_interferer(channel::Interferer{{12, 1}, 60.0, 0.5});
  const double jam = link.snr_db(12, 12);
  const double measured = sampler.measure_snr_db(link, 12, 12, rng);
  EXPECT_NEAR(measured, 0.5 * clean + 0.5 * jam, 2.0);
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

TEST_F(SamplerFixture, ObservationMakesFourLinkStreamDraws) {
  // The draw contract: snr gaussian, noise gaussian, one raw tap key, cdr
  // gaussian -- however many PDP taps the observation synthesizes.
  util::Rng observed(9);
  sampler.observe(link, 12, 12, 4, observed);
  util::Rng replay(9);
  const SamplerConfig& cfg = sampler.config();
  replay.gaussian(0.0, cfg.snr_jitter_db);
  replay.gaussian(0.0, cfg.noise_jitter_db);
  replay.raw();
  replay.gaussian(0.0, cfg.cdr_jitter);
  EXPECT_EQ(observed.raw(), replay.raw());
}

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (bits(a[i]) != bits(b[i])) return false;
  }
  return true;
}

TEST(Sampler, RateProbeAndLazyPdpMatchFullObservationInRegistryRooms) {
  // Every registry room, each with the 8 combinations of {blocker on the
  // LOS, bursty interferer, fade}, every MCS. The rate-only probe must give
  // the full observation's scalars bit for bit and leave the link stream in
  // the same state; the full observation's channel SNRs must be the link's
  // own queries bit for bit (the frame SINR reads them). The scalar
  // observation plus materialize() must rebuild every field of the full
  // observation bit for bit, ToF = infinity included, and leave the link
  // stream where observe() leaves it.
  const McsTable table;
  const ErrorModel em(&table);
  const PhySampler sampler(&em);
  const array::Codebook codebook;
  std::vector<env::Environment> rooms = env::training_environments();
  for (env::Environment& e : env::testing_environments()) {
    rooms.push_back(std::move(e));
  }
  util::Rng poses(21);
  int infinite_tofs = 0;
  for (env::Environment& room : rooms) {
    const env::Environment::BoundingBox bb = room.bounding_box();
    const auto random_point = [&] {
      return room.clamp_inside({poses.uniform(bb.min.x, bb.max.x),
                                poses.uniform(bb.min.y, bb.max.y)});
    };
    const geom::Vec2 tx_pos = random_point();
    const geom::Vec2 rx_pos = random_point();
    array::PhasedArray tx(tx_pos, poses.uniform(-180.0, 180.0), &codebook);
    array::PhasedArray rx(rx_pos, poses.uniform(-180.0, 180.0), &codebook);
    for (int combo = 0; combo < 8; ++combo) {
      const bool blocked = (combo & 1) != 0;
      const bool jammed = (combo & 2) != 0;
      const bool faded = (combo & 4) != 0;
      SCOPED_TRACE(room.name() + " blocker " + std::to_string(blocked) +
                   " interferer " + std::to_string(jammed) + " fade " +
                   std::to_string(faded));
      room.clear_blockers();
      if (blocked) room.add_blocker({(tx_pos + rx_pos) * 0.5, 0.3, 25.0});
      channel::Link link(&room, &tx, &rx);
      if (jammed) {
        link.set_interferer(
            channel::Interferer{random_point(), poses.uniform(10.0, 40.0),
                                poses.uniform(0.2, 0.8)});
      }
      if (faded) link.set_fade_db(poses.gaussian(0.0, 3.0));
      // A random beam pair and the strongest one, so that the CDRs are not
      // all clamped to 0.
      array::BeamId best_tx = 0;
      array::BeamId best_rx = 0;
      for (array::BeamId t = 0; t < codebook.size(); ++t) {
        for (array::BeamId r = 0; r < codebook.size(); ++r) {
          if (link.snr_db(t, r) > link.snr_db(best_tx, best_rx)) {
            best_tx = t;
            best_rx = r;
          }
        }
      }
      const array::BeamId random_tx = poses.uniform_int(0, codebook.size() - 1);
      const array::BeamId random_rx = poses.uniform_int(0, codebook.size() - 1);
      for (int k = 0; k < 2 * table.size(); ++k) {
        const McsIndex m = k % table.size();
        const array::BeamId tb = k < table.size() ? random_tx : best_tx;
        const array::BeamId rb = k < table.size() ? random_rx : best_rx;
        SCOPED_TRACE("pair " + std::to_string(tb) + "," + std::to_string(rb) +
                     " mcs " + std::to_string(m));
        const std::uint64_t seed = poses.raw();
        util::Rng full_rng(seed);
        util::Rng rate_rng(seed);
        const PhyObservation full = sampler.observe(link, tb, rb, m, full_rng);
        const RateObservation rate =
            sampler.observe_rate(link, tb, rb, m, rate_rng);
        EXPECT_EQ(bits(rate.snr_db), bits(full.snr_db));
        EXPECT_EQ(bits(rate.noise_dbm), bits(full.noise_dbm));
        EXPECT_EQ(bits(rate.cdr), bits(full.cdr));
        EXPECT_EQ(bits(rate.throughput_mbps), bits(full.throughput_mbps));
        EXPECT_EQ(rate.mcs, full.mcs);
        EXPECT_EQ(full_rng.raw(), rate_rng.raw());

        util::Rng lazy_rng(seed);
        ScalarObservation scalar =
            sampler.observe_scalars(link, tb, rb, m, lazy_rng);
        EXPECT_TRUE(scalar.obs.pdp.empty());
        EXPECT_TRUE(scalar.obs.csi.empty());
        EXPECT_FALSE(scalar.obs.tof_ns.has_value());
        EXPECT_EQ(scalar.ticket.tx_beam, tb);
        EXPECT_EQ(scalar.ticket.rx_beam, rb);
        EXPECT_EQ(bits(scalar.channel_snr.clean_db),
                  bits(link.snr_clean_db(tb, rb)));
        EXPECT_EQ(bits(scalar.channel_snr.jammed_db),
                  bits(link.snr_db(tb, rb)));
        PhyObservation lazy = scalar.obs;
        sampler.materialize(link, scalar.ticket, lazy);
        EXPECT_EQ(bits(lazy.snr_db), bits(full.snr_db));
        EXPECT_EQ(bits(lazy.noise_dbm), bits(full.noise_dbm));
        EXPECT_EQ(bits(lazy.cdr), bits(full.cdr));
        EXPECT_EQ(bits(lazy.throughput_mbps), bits(full.throughput_mbps));
        EXPECT_EQ(lazy.mcs, full.mcs);
        ASSERT_EQ(lazy.tof_ns.has_value(), full.tof_ns.has_value());
        if (full.tof_ns) {
          EXPECT_EQ(bits(*lazy.tof_ns), bits(*full.tof_ns));
        } else {
          ++infinite_tofs;
        }
        EXPECT_EQ(lazy.pdp.size(), static_cast<std::size_t>(256));
        EXPECT_TRUE(same_bits(lazy.pdp, full.pdp));
        EXPECT_TRUE(same_bits(lazy.csi, full.csi));
        util::Rng observed_after(seed);
        sampler.observe(link, tb, rb, m, observed_after);
        EXPECT_EQ(lazy_rng.raw(), observed_after.raw());
      }
    }
    room.clear_blockers();
  }
  // The sweep reaches the "ToF = infinity" state the lazy path must also
  // reproduce (random beam pairs through a blocker or a backlobe).
  EXPECT_GT(infinite_tofs, 0);
}

// ---------- keyed normal stream ----------

TEST(KeyedNormals, FirstValuesArePinned) {
  // The stream is splitmix64 + Box-Muller written out in util/rng.h, so its
  // values are a function of the key alone, not of the host's <random>.
  // DOUBLE_EQ (4 ulp) leaves room only for libm's last-bit rounding.
  const double want[16] = {
      1.1186819870407609,   -1.9248120524117758,  -1.2042172457172178,
      -1.3841997366722889,  2.8488006165259541,   1.5895049598760111,
      -0.7856693554179508,  -0.18033525916451557, 0.13264656709901601,
      0.18354802478547597,  -0.5707736395062124,  0.33394986986009301,
      -0.89931248127675412, -0.59975166890664267, 0.96548269229021633,
      -1.4510226174196619};
  util::KeyedNormals stream(0x0123456789abcdefULL);
  for (int i = 0; i < 16; ++i) {
    EXPECT_DOUBLE_EQ(stream.next(), want[i]) << "draw " << i;
  }
}

TEST(KeyedNormals, StandardNormalMoments) {
  constexpr int kDraws = 100000;
  util::KeyedNormals stream(0x5eed5eed5eed5eedULL);
  double sum = 0.0;
  double sum_sq = 0.0;
  for (int i = 0; i < kDraws; ++i) {
    const double z = stream.next();
    ASSERT_TRUE(std::isfinite(z)) << "draw " << i;
    sum += z;
    sum_sq += z * z;
  }
  const double mean = sum / kDraws;
  const double variance = sum_sq / kDraws - mean * mean;
  // Standard errors at 10^5 draws: 0.0032 for the mean, 0.0045 for the
  // variance; the bounds are ~4 of them.
  EXPECT_NEAR(mean, 0.0, 0.013);
  EXPECT_NEAR(variance, 1.0, 0.018);
}

TEST(KeyedNormals, DistinctKeysGiveDistinctStreams) {
  util::KeyedNormals a(41);
  util::KeyedNormals b(42);
  int equal = 0;
  for (int i = 0; i < 64; ++i) equal += a.next() == b.next() ? 1 : 0;
  EXPECT_EQ(equal, 0);
}

TEST(Sampler, NullErrorModelThrows) {
  EXPECT_THROW(PhySampler(nullptr), std::invalid_argument);
}

}  // namespace
}  // namespace libra::phy
