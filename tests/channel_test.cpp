#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>

#include "channel/beam_grid.h"
#include "channel/fading.h"
#include "channel/link.h"
#include "channel/link_budget.h"
#include "channel/path_tracer.h"
#include "env/registry.h"
#include "util/rng.h"
#include "util/stats.h"

namespace libra::channel {
namespace {

env::Environment box() {
  return env::Environment("box", env::rectangle_walls(20, 10, 8, 8, 8, 8));
}

// ---------- link budget ----------

TEST(LinkBudget, FsplMatchesClosedForm) {
  // 68 dB at 1 m and 60 GHz is the textbook value.
  EXPECT_NEAR(fspl_db(1.0, 60e9), 68.0, 0.2);
  // +20 dB per decade of distance.
  EXPECT_NEAR(fspl_db(10.0, 60e9) - fspl_db(1.0, 60e9), 20.0, 1e-9);
}

TEST(LinkBudget, NearFieldGuard) {
  EXPECT_DOUBLE_EQ(fspl_db(0.0, 60e9), fspl_db(0.1, 60e9));
}

TEST(LinkBudget, OxygenAbsorptionAccumulates) {
  const double d1 = path_loss_db(10.0);
  const double d2 = path_loss_db(1000.0);
  // At 1 km the O2 term alone adds ~16 dB beyond FSPL scaling.
  const double fspl_delta = fspl_db(1000.0, kCarrierFrequencyHz) -
                            fspl_db(10.0, kCarrierFrequencyHz);
  EXPECT_NEAR(d2 - d1 - fspl_delta, kOxygenDbPerM * 990.0, 1e-9);
}

TEST(LinkBudget, ThermalNoiseFloor) {
  // -174 + 10log10(1.76e9) + 7 = -74.5 dBm.
  EXPECT_NEAR(thermal_noise_floor_dbm(), -74.5, 0.2);
}

// ---------- path tracer ----------

TEST(PathTracer, FreeSpaceHasOnlyLos) {
  const env::Environment empty("empty", {});
  const PathTracer tracer;
  const auto paths = tracer.trace(empty, {0, 0}, {5, 0});
  ASSERT_EQ(paths.size(), 1u);
  EXPECT_EQ(paths[0].bounces, 0);
  EXPECT_DOUBLE_EQ(paths[0].length_m, 5.0);
  EXPECT_NEAR(paths[0].aod_deg, 0.0, 1e-9);
  EXPECT_NEAR(paths[0].aoa_deg, 180.0, 1e-9);
}

TEST(PathTracer, BoxYieldsLosAndReflections) {
  const env::Environment e = box();
  const PathTracer tracer;
  const auto paths = tracer.trace(e, {2, 5}, {18, 5});
  int los = 0, first = 0, second = 0;
  for (const auto& p : paths) {
    if (p.bounces == 0) ++los;
    if (p.bounces == 1) ++first;
    if (p.bounces == 2) ++second;
  }
  EXPECT_EQ(los, 1);
  // Midline between parallel walls: ceiling + floor wall reflections exist.
  EXPECT_GE(first, 2);
  EXPECT_GE(second, 2);
}

TEST(PathTracer, ReflectionGeometryIsSpecular) {
  const env::Environment e = box();
  const PathTracer tracer(1);
  const auto paths = tracer.trace(e, {5, 5}, {15, 5});
  for (const auto& p : paths) {
    if (p.bounces != 1) continue;
    ASSERT_EQ(p.points.size(), 3u);
    // For the two horizontal walls the reflection point is equidistant in x
    // (symmetric Tx/Rx heights); end walls reflect at other points.
    const bool horizontal_wall =
        std::abs(p.points[1].y) < 1e-6 || std::abs(p.points[1].y - 10.0) < 1e-6;
    if (horizontal_wall) {
      EXPECT_NEAR(p.points[1].x, 10.0, 1e-6);
    }
    // Any reflected path is longer than the LOS.
    EXPECT_GT(p.length_m, 10.0);
  }
}

TEST(PathTracer, ReflectionLossComesFromWallMaterial) {
  auto walls = env::rectangle_walls(20, 10, 3, 99, 12, 99);
  const env::Environment e("mixed", std::move(walls));
  const PathTracer tracer(1);
  const auto paths = tracer.trace(e, {5, 5}, {15, 5});
  bool saw3 = false, saw12 = false;
  for (const auto& p : paths) {
    if (p.bounces != 1) continue;
    saw3 |= p.reflection_loss_db == 3.0;
    saw12 |= p.reflection_loss_db == 12.0;
  }
  EXPECT_TRUE(saw3);
  EXPECT_TRUE(saw12);
}

TEST(PathTracer, WallBlocksLos) {
  auto walls = env::rectangle_walls(20, 10, 8, 8, 8, 8);
  walls.push_back({{{10, 0}, {10, 10}}, 5.0, "divider"});
  const env::Environment e("divided", std::move(walls));
  const PathTracer tracer;
  const auto paths = tracer.trace(e, {5, 5}, {15, 5});
  for (const auto& p : paths) {
    EXPECT_NE(p.bounces, 0);  // no LOS through the divider
  }
}

TEST(PathTracer, MaxBouncesZero) {
  const env::Environment e = box();
  const PathTracer tracer(0);
  const auto paths = tracer.trace(e, {5, 5}, {15, 5});
  ASSERT_EQ(paths.size(), 1u);
  EXPECT_EQ(paths[0].bounces, 0);
}

TEST(PathTracer, SecondOrderPathLengthExceedsFirstOrder) {
  const env::Environment e = box();
  const PathTracer tracer;
  const auto paths = tracer.trace(e, {2, 5}, {18, 5});
  double min2 = 1e18, min1 = 1e18;
  for (const auto& p : paths) {
    if (p.bounces == 1) min1 = std::min(min1, p.length_m);
    if (p.bounces == 2) min2 = std::min(min2, p.length_m);
  }
  EXPECT_GT(min2, min1);
}

// ---------- link ----------

struct LinkFixture : ::testing::Test {
  LinkFixture()
      : environment(box()),
        tx({2, 5}, 0.0, &codebook),
        rx({18, 5}, 180.0, &codebook),
        link(&environment, &tx, &rx) {}

  array::Codebook codebook;
  env::Environment environment;
  array::PhasedArray tx;
  array::PhasedArray rx;
  Link link;
};

TEST_F(LinkFixture, AlignedBeamsGiveBestPower) {
  const double aligned = link.rx_power_dbm(12, 12);
  EXPECT_GT(aligned, link.rx_power_dbm(0, 12));
  EXPECT_GT(aligned, link.rx_power_dbm(12, 0));
  EXPECT_GT(aligned, link.rx_power_dbm(12, array::kQuasiOmni));
}

TEST_F(LinkFixture, PowerDecreasesWithDistance) {
  const double near = link.rx_power_dbm(12, 12);
  rx.set_position({10, 5});
  link.refresh();
  const double nearer = link.rx_power_dbm(12, 12);
  EXPECT_GT(nearer, near);
}

TEST_F(LinkFixture, SnrIsPowerMinusNoise) {
  EXPECT_NEAR(link.snr_db(12, 12),
              link.rx_power_dbm(12, 12) - link.noise_floor_dbm(12), 1e-9);
}

TEST_F(LinkFixture, FlatInterferenceRaisesFloor) {
  const double before = link.snr_db(12, 12);
  link.set_interference_rise_db(10.0);
  EXPECT_NEAR(link.snr_db(12, 12), before - 10.0, 1e-9);
}

TEST_F(LinkFixture, BlockerReducesPowerWithoutRefresh) {
  const double before = link.rx_power_dbm(12, 12);
  environment.add_blocker({{10, 5}, 0.25, 28.0});
  const double after = link.rx_power_dbm(12, 12);
  EXPECT_LT(after, before - 10.0);  // LOS dominated, so most power is gone
}

TEST_F(LinkFixture, InterfererCouplingDependsOnRxBeam) {
  link.set_interferer(Interferer{{18, 1}, 30.0, 1.0});
  // The interferer sits below the Rx; a beam looking toward it couples more
  // than a beam looking away.
  const array::BeamId toward = codebook.nearest_beam(
      geom::wrap_angle_deg((geom::Vec2{18, 1} - rx.position()).angle_deg() -
                           rx.boresight_deg()));
  double max_power = -1e9, min_power = 1e9;
  for (array::BeamId b = 0; b < codebook.size(); ++b) {
    const double p = link.interference_power_dbm(b);
    max_power = std::max(max_power, p);
    min_power = std::min(min_power, p);
  }
  EXPECT_GT(max_power - min_power, 5.0);
  EXPECT_GT(link.interference_power_dbm(toward), min_power);
}

TEST_F(LinkFixture, CleanSnrIgnoresInterferer) {
  const double before = link.snr_clean_db(12, 12);
  link.set_interferer(Interferer{{10, 2}, 40.0, 0.5});
  EXPECT_NEAR(link.snr_clean_db(12, 12), before, 1e-9);
  EXPECT_LT(link.snr_db(12, 12), before);
}

TEST_F(LinkFixture, RemovingInterfererRestoresFloor) {
  const double base = link.noise_floor_dbm(12);
  link.set_interferer(Interferer{{10, 2}, 40.0, 1.0});
  EXPECT_GT(link.noise_floor_dbm(12), base);
  link.set_interferer(std::nullopt);
  EXPECT_NEAR(link.noise_floor_dbm(12), base, 1e-12);
}

TEST_F(LinkFixture, ContributionsDelaysMatchGeometry) {
  // The earliest arrival is the LOS at distance/c.
  std::size_t count = 0;
  double min_delay = 1e18;
  link.for_each_contribution(12, 12, [&](const PathContribution& c) {
    ++count;
    min_delay = std::min(min_delay, c.delay_ns);
  });
  ASSERT_GT(count, 0u);
  EXPECT_NEAR(min_delay, 16.0 / 0.299792458, 0.01);
}

TEST_F(LinkFixture, NoPathsYieldsFloorPower) {
  // Fully separate the endpoints with a box around the Tx.
  auto walls = env::rectangle_walls(20, 10, 8, 8, 8, 8);
  for (const auto& w : env::rectangle_walls(2, 2, 99, 99, 99, 99)) {
    walls.push_back({{{w.seg.a.x + 1, w.seg.a.y + 4},
                      {w.seg.b.x + 1, w.seg.b.y + 4}},
                     99.0, "cage"});
  }
  env::Environment caged("caged", std::move(walls));
  array::PhasedArray tx2({2, 5}, 0.0, &codebook);
  array::PhasedArray rx2({18, 5}, 180.0, &codebook);
  Link caged_link(&caged, &tx2, &rx2);
  // Tx sits inside the cage: no LOS, and the cage participates in
  // reflections but every LOS leg is cut.
  EXPECT_LT(caged_link.rx_power_dbm(12, 12), link.rx_power_dbm(12, 12));
}

TEST_F(LinkFixture, FadeOffsetsSignalNotNoise) {
  const double snr0 = link.snr_db(12, 12);
  const double floor0 = link.noise_floor_dbm(12);
  link.set_fade_db(-6.0);
  EXPECT_NEAR(link.snr_db(12, 12), snr0 - 6.0, 1e-9);
  EXPECT_NEAR(link.noise_floor_dbm(12), floor0, 1e-12);
  link.set_fade_db(0.0);
  EXPECT_NEAR(link.snr_db(12, 12), snr0, 1e-9);
}

TEST_F(LinkFixture, SameInterfererIsANoOpAndRefreshRetracesIt) {
  const Interferer burst{{10, 2}, 40.0, 0.5};
  link.set_interferer(burst);
  // Moving the Rx and re-setting the same interferer does not re-trace;
  // refresh() re-traces both the link and the interferer paths.
  rx.set_position({14, 7});
  link.set_interferer(burst);
  link.refresh();
  array::PhasedArray rx2({14, 7}, 180.0, &codebook);
  Link fresh(&environment, &tx, &rx2);
  fresh.set_interferer(burst);
  for (array::BeamId b = array::kQuasiOmni; b < codebook.size(); ++b) {
    EXPECT_EQ(link.noise_floor_dbm(b), fresh.noise_floor_dbm(b)) << b;
  }
  // A changed interferer does take effect.
  link.set_interferer(Interferer{{10, 2}, 50.0, 0.5});
  EXPECT_GT(link.noise_floor_dbm(12), fresh.noise_floor_dbm(12));
}

// ---------- beam grid ----------

// Bit pattern of a double: equality here means the grid is bit-exact, not
// merely close.
std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

// Every beam pair (kQuasiOmni included on the Rx side) of `grid` against
// the per-pair Link queries, bit for bit.
void expect_grid_matches_link(const BeamGrid& grid, const Link& link) {
  const int n_tx = link.tx().codebook().size();
  const int n_rx = link.rx().codebook().size();
  ASSERT_EQ(grid.num_tx_beams(), n_tx);
  ASSERT_EQ(grid.num_rx_beams(), n_rx);
  EXPECT_EQ(bits(grid.clean_floor_dbm()),
            bits(link.thermal_floor_dbm() + link.interference_rise_db()));
  EXPECT_EQ(bits(grid.interferer_duty()), bits(link.interferer_duty()));
  for (array::BeamId rb = array::kQuasiOmni; rb < n_rx; ++rb) {
    ASSERT_EQ(bits(grid.noise_floor_dbm(rb)), bits(link.noise_floor_dbm(rb)))
        << "rx " << rb;
    for (array::BeamId tb = 0; tb < n_tx; ++tb) {
      ASSERT_EQ(bits(grid.rx_power_dbm(tb, rb)),
                bits(link.rx_power_dbm(tb, rb)))
          << "pair " << tb << "," << rb;
      ASSERT_EQ(bits(grid.snr_clean_db(tb, rb)),
                bits(link.snr_clean_db(tb, rb)))
          << "pair " << tb << "," << rb;
      ASSERT_EQ(bits(grid.snr_db(tb, rb)), bits(link.snr_db(tb, rb)))
          << "pair " << tb << "," << rb;
    }
  }
}

TEST(BeamGrid, MatchesPerPairQueriesInRegistryRooms) {
  // Random poses in every registry room, each with two blockers on the LOS
  // (blockage sums in blocker order), a fade, a flat rise and (every other
  // pose) an interferer.
  const array::Codebook codebook;
  std::vector<env::Environment> rooms = env::training_environments();
  for (env::Environment& e : env::testing_environments()) {
    rooms.push_back(std::move(e));
  }
  util::Rng rng(12);
  BeamGrid grid;  // one grid rebuilt for every state, like a sweep's scratch
  int pose = 0;
  for (env::Environment& room : rooms) {
    const env::Environment::BoundingBox bb = room.bounding_box();
    const auto random_point = [&] {
      return room.clamp_inside({rng.uniform(bb.min.x, bb.max.x),
                                rng.uniform(bb.min.y, bb.max.y)});
    };
    for (int i = 0; i < 3; ++i, ++pose) {
      SCOPED_TRACE(room.name() + " pose " + std::to_string(i));
      const geom::Vec2 tx_pos = random_point();
      const geom::Vec2 rx_pos = random_point();
      array::PhasedArray tx(tx_pos, rng.uniform(-180.0, 180.0), &codebook);
      array::PhasedArray rx(rx_pos, rng.uniform(-180.0, 180.0), &codebook);
      room.clear_blockers();
      room.add_blocker({(tx_pos + rx_pos) * 0.5, 0.3, 25.0});
      room.add_blocker({tx_pos + (rx_pos - tx_pos) * 0.3, 0.25, 18.0});
      Link link(&room, &tx, &rx);
      link.set_fade_db(rng.gaussian(0.0, 2.0));
      link.set_interference_rise_db(rng.uniform(0.0, 6.0));
      if (pose % 2 == 0) {
        link.set_interferer(
            Interferer{random_point(), rng.uniform(10.0, 40.0), 0.5});
      }
      grid.build(link);
      expect_grid_matches_link(grid, link);
    }
    room.clear_blockers();
  }
}

TEST(BeamGrid, NoPathLinkReportsTheNoSignalFloor) {
  // Tx and Rx on either side of one long wall: the LOS is cut, and the
  // only reflector faces each end back onto its own side.
  const env::Environment split(
      "split", {{{{5, -50}, {5, 50}}, 99.0, "wall"}});
  const array::Codebook codebook;
  array::PhasedArray tx({0, 0}, 0.0, &codebook);
  array::PhasedArray rx({10, 0}, 180.0, &codebook);
  Link link(&split, &tx, &rx);
  link.set_fade_db(-2.0);
  ASSERT_TRUE(link.paths().empty());
  const BeamGrid grid(link);
  EXPECT_EQ(grid.rx_power_dbm(12, 12), kNoSignalDbm);
  expect_grid_matches_link(grid, link);
}

TEST(Fading, StationaryStatistics) {
  FadingConfig cfg;
  cfg.sigma_db = 2.0;
  cfg.coherence_time_ms = 100.0;
  FadingProcess fading(cfg, 7);
  util::RunningStats stats;
  // Sample far apart relative to the coherence time for near-independence.
  for (int i = 0; i < 5000; ++i) stats.add(fading.advance(500.0));
  EXPECT_NEAR(stats.mean(), 0.0, 0.15);
  EXPECT_NEAR(stats.stddev(), 2.0, 0.15);
}

TEST(Fading, TemporalCorrelation) {
  FadingConfig cfg;
  cfg.sigma_db = 2.0;
  cfg.coherence_time_ms = 1000.0;
  FadingProcess fading(cfg, 8);
  fading.advance(10000.0);  // burn in
  // Tiny steps: consecutive values stay close.
  double prev = fading.current_db();
  double max_step = 0.0;
  for (int i = 0; i < 200; ++i) {
    const double cur = fading.advance(1.0);
    max_step = std::max(max_step, std::abs(cur - prev));
    prev = cur;
  }
  EXPECT_LT(max_step, 0.5);
}

TEST(Fading, ZeroCoherenceIsWhiteNoise) {
  FadingConfig cfg;
  cfg.sigma_db = 1.0;
  cfg.coherence_time_ms = 0.0;
  FadingProcess fading(cfg, 9);
  const double a = fading.advance(1.0);
  const double b = fading.advance(1.0);
  EXPECT_NE(a, b);
}

TEST(Link, NullDependenciesThrow) {
  array::Codebook cb;
  env::Environment e = box();
  array::PhasedArray a({0, 0}, 0, &cb);
  EXPECT_THROW(Link(nullptr, &a, &a), std::invalid_argument);
  EXPECT_THROW(Link(&e, nullptr, &a), std::invalid_argument);
  EXPECT_THROW(Link(&e, &a, nullptr), std::invalid_argument);
}

}  // namespace
}  // namespace libra::channel
