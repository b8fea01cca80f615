// Fleet serving (sim/fleet.h): the lockstep batched decision engine must be
// an exact refactoring of N independent sessions -- same per-link results,
// bit for bit, for any forest thread count.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/controller.h"
#include "core/decision_backend.h"
#include "env/registry.h"
#include "json_mini.h"
#include "ml/random_forest.h"
#include "obs/span.h"
#include "sim/fleet.h"
#include "sim/fleet_world.h"
#include "sim/golden.h"
#include "test_helpers.h"

namespace libra {
namespace {

using libra::testing::expect_fleets_identical;

// A 4-station mixed fleet with per-station impairments and staggered
// session lengths (station 3 finishes early and sits out later ticks).
// Station 2 is the RA-first baseline.
std::vector<sim::StationSpec> mixed_specs() {
  const core::LibraClassifier* clf = &sim::golden_classifier();
  std::vector<sim::StationSpec> specs(4);
  specs[0] = {{10, 6}, clf, {}};
  specs[0].script.duration_ms = 2000.0;
  specs[0].script.blockage.push_back({600.0, 1400.0, {{6, 6}, 0.3, 35.0}});
  specs[1] = {{12, 7}, clf, {}};
  specs[1].script.duration_ms = 2000.0;
  specs[1].script.rx_trajectory =
      sim::Trajectory::walk({12, 7}, {18, 8}, 2000.0, geom::Vec2{2, 6});
  specs[2] = {{9, 5}, nullptr, {}};
  specs[2].script.duration_ms = 2000.0;
  specs[2].script.interference.push_back(
      {500.0, 1500.0, {{10, 1}, 50.0, 0.5}});
  specs[3] = {{11, 6}, clf, {}};
  specs[3].script.duration_ms = 800.0;  // early finisher
  return specs;
}

// The lobby world (AP at (2, 6)) every fleet in this suite runs in.
sim::FleetWorld lobby_world(const array::Codebook* codebook,
                            std::vector<sim::StationSpec> specs) {
  return sim::FleetWorld(env::make_lobby(), {2, 6}, codebook,
                         &sim::golden_error_model(), std::move(specs));
}

// One fresh run of the mixed fleet, frame logs kept.
sim::FleetResult run_mixed_fleet(sim::FleetConfig cfg) {
  const array::Codebook codebook;
  const sim::FleetWorld world = lobby_world(&codebook, mixed_specs());
  cfg.keep_frame_logs = true;
  return sim::run_fleet(world.members(), cfg);
}

sim::FleetConfig grid_cfg(std::uint64_t seed, int shards, int num_threads) {
  sim::FleetConfig cfg;
  cfg.seed = seed;
  cfg.shards = shards;
  cfg.num_threads = num_threads;
  return cfg;
}

TEST(Fleet, BitIdenticalToIndependentSessions) {
  const array::Codebook codebook;
  constexpr std::uint64_t kSeed = 77;

  // Fleet run: lockstep ticks, batched inference.
  const sim::FleetResult fleet = run_mixed_fleet(grid_cfg(kSeed, 0, 1));
  ASSERT_EQ(fleet.links.size(), 4u);
  EXPECT_GT(fleet.ticks, 0);
  EXPECT_GT(fleet.batched_rows, 0);  // the LiBRA stations used the engine
  EXPECT_EQ(fleet.tick_latency_us.count(),
            static_cast<std::size_t>(fleet.ticks));

  // Serial reference: independent sessions on the same forked streams.
  const sim::FleetWorld world = lobby_world(&codebook, mixed_specs());
  sim::FleetResult serial;
  util::Rng fleet_rng(kSeed);
  for (const sim::FleetLink& m : world.members()) {
    util::Rng link_rng = fleet_rng.fork();
    serial.links.push_back(sim::run_session(*m.environment, *m.link,
                                            *m.controller, m.script, link_rng,
                                            /*keep_frame_log=*/true));
  }
  expect_fleets_identical(fleet, serial, "fleet vs serial");
}

// The sharding contract on the mixed 4-station fleet: ANY (shards,
// num_threads) combination -- serial multi-shard, threaded, more shards
// than links -- must reproduce the legacy single-shard serial run bit for
// bit.
TEST(Fleet, ShardThreadGridBitIdentical) {
  const sim::FleetResult baseline = run_mixed_fleet(grid_cfg(77, 1, 1));
  constexpr struct {
    int shards;
    int threads;
  } kGrid[] = {{2, 1}, {3, 1}, {4, 1}, {0, 4}, {2, 4}, {4, 2}, {9, 3}};
  for (const auto& g : kGrid) {
    expect_fleets_identical(baseline,
                            run_mixed_fleet(grid_cfg(77, g.shards, g.threads)),
                            "shards=" + std::to_string(g.shards) +
                                " threads=" + std::to_string(g.threads));
  }
}

TEST(Fleet, ShardsClampedToLinkCountAndReported) {
  // More shards than links.
  EXPECT_EQ(run_mixed_fleet(grid_cfg(77, 64, 1)).shards_used, 4);
}

TEST(Fleet, NegativeShardOrThreadCountThrows) {
  const array::Codebook codebook;
  const sim::StationSpec spec{{10, 6}, nullptr, {}};
  const sim::FleetWorld world = lobby_world(&codebook, {spec});
  sim::FleetConfig bad_shards;
  bad_shards.shards = -1;
  EXPECT_THROW(sim::run_fleet(world.members(), bad_shards),
               std::invalid_argument);
  sim::FleetConfig bad_threads;
  bad_threads.num_threads = -2;
  EXPECT_THROW(sim::run_fleet(world.members(), bad_threads),
               std::invalid_argument);
}

// The world builder owns every station and never relocates it: members()
// borrows station k's own environment, link and controller, the Rx sits at
// spec k's client pose, and a null classifier means the RA-first baseline.
TEST(Fleet, FleetWorldOwnsOneStationPerSpec) {
  static_assert(!std::is_copy_constructible_v<sim::FleetWorld>);
  static_assert(!std::is_move_constructible_v<sim::FleetWorld>);
  const array::Codebook codebook;
  const std::vector<sim::StationSpec> specs = mixed_specs();
  const sim::FleetWorld world = lobby_world(&codebook, specs);
  ASSERT_EQ(world.members().size(), specs.size());
  for (std::size_t k = 0; k < specs.size(); ++k) {
    const sim::FleetLink& m = world.members()[k];
    const sim::FleetWorld::Station& s = world.station(k);
    EXPECT_EQ(m.environment, &s.environment) << "station " << k;
    EXPECT_EQ(m.link, &s.link) << "station " << k;
    EXPECT_EQ(m.controller, s.controller.get()) << "station " << k;
    EXPECT_EQ(&s.link.rx(), &s.client) << "station " << k;
    EXPECT_EQ(s.client.position().x, specs[k].client.x) << "station " << k;
    EXPECT_EQ(s.client.position().y, specs[k].client.y) << "station " << k;
    EXPECT_EQ(s.client.boresight_deg(), 180.0) << "station " << k;
    EXPECT_EQ(m.script.duration_ms, specs[k].script.duration_ms)
        << "station " << k;
    const bool is_libra =
        dynamic_cast<const core::LibraController*>(m.controller) != nullptr;
    const bool is_ra_first =
        dynamic_cast<const core::RaFirstController*>(m.controller) != nullptr;
    EXPECT_EQ(is_libra, specs[k].classifier != nullptr) << "station " << k;
    EXPECT_EQ(is_ra_first, specs[k].classifier == nullptr) << "station " << k;
  }
}

// Telemetry is observation-only: disabling it at runtime must leave every
// frame of every link bit-identical -- no counter, span, or clock read may
// feed back into RNG draws or decisions.
TEST(Fleet, TelemetryOnOffBitIdentical) {
  const sim::FleetResult with_obs = run_mixed_fleet(grid_cfg(77, 0, 1));
  obs::set_enabled(false);
  const sim::FleetResult without_obs = run_mixed_fleet(grid_cfg(77, 0, 1));
  obs::set_enabled(true);
  expect_fleets_identical(with_obs, without_obs, "telemetry on/off");
}

// Compiled flat-arena inference is a pure serving-path optimization: a
// fleet served by the compiled forest must be bit-identical, frame for
// frame, to the same fleet served through a LocalBackend over an
// uncompiled copy of the same trees (the interpreted pointer walk). Both
// engines evaluate the exact same comparisons; only the memory layout
// differs.
TEST(Fleet, CompiledInferenceOnOffBitIdentical) {
  const ml::RandomForest& forest = sim::golden_classifier().forest();
  ASSERT_NE(forest.compiled(), nullptr);
  ml::RandomForest interpreted;  // import_model leaves it uncompiled
  interpreted.import_model(forest.trees(), forest.feature_importances(),
                           forest.num_classes());
  ASSERT_EQ(interpreted.compiled(), nullptr);
  core::LocalBackend pointer_walk(&interpreted);

  sim::FleetConfig walked_cfg = grid_cfg(77, 0, 1);
  walked_cfg.backend = &pointer_walk;
  expect_fleets_identical(run_mixed_fleet(grid_cfg(77, 0, 1)),
                          run_mixed_fleet(walked_cfg),
                          "compiled vs pointer walk");
}

#if LIBRA_OBS_ENABLED

// A fleet run's exported trace must be valid Chrome trace-event JSON and
// cover the tick phases plus the batched inference span (the acceptance
// check behind `libra simulate --trace-out`).
TEST(Fleet, TraceContainsFleetSpans) {
  obs::TraceBuffer& buf = obs::TraceBuffer::global();
  buf.clear();
  (void)run_mixed_fleet(grid_cfg(77, 0, 1));

  const std::string path = ::testing::TempDir() + "fleet_trace.json";
  buf.write_chrome_json(path);
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream ss;
  ss << in.rdbuf();
  const libra::testing::JsonValue root = libra::testing::parse_json(ss.str());
  const libra::testing::JsonValue* events = root.find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());

  bool gather = false, decide = false, scatter = false, classify = false;
  for (const libra::testing::JsonValue& e : events->array) {
    const libra::testing::JsonValue* name = e.find("name");
    const libra::testing::JsonValue* ph = e.find("ph");
    ASSERT_NE(name, nullptr);
    ASSERT_NE(ph, nullptr);
    EXPECT_EQ(ph->str, "X");
    gather |= name->str == "fleet.gather";
    decide |= name->str == "fleet.decide";
    scatter |= name->str == "fleet.scatter";
    classify |= name->str == "classifier.classify_batch";
  }
  EXPECT_TRUE(gather);
  EXPECT_TRUE(decide);
  EXPECT_TRUE(scatter);
  EXPECT_TRUE(classify);
  buf.clear();
}

// The scrape rides back on FleetResult: phase histograms and tick counters
// must reflect the run that produced them.
TEST(Fleet, ResultCarriesMetricsSnapshot) {
  const array::Codebook codebook;
  const sim::FleetWorld world = lobby_world(&codebook, mixed_specs());
  const sim::FleetResult result = sim::run_fleet(world.members(), {});

  const auto* ticks = result.metrics.find_counter("fleet.ticks");
  ASSERT_NE(ticks, nullptr);
  EXPECT_GE(ticks->value, static_cast<std::uint64_t>(result.ticks));
  const auto* hist = result.metrics.find_histogram("fleet.tick_latency_us");
  ASSERT_NE(hist, nullptr);
  EXPECT_GE(hist->data.count, static_cast<std::uint64_t>(result.ticks));
  const auto* rows = result.metrics.find_counter("fleet.batched_rows");
  ASSERT_NE(rows, nullptr);
  EXPECT_GE(rows->value, static_cast<std::uint64_t>(result.batched_rows));
}

// Each phase histogram records one observation per shard-tick that
// stepped: a shard whose last link finished runs no further (empty) tick.
// A shard steps in every tick until its longest-running link is done, so
// its stepped ticks are the largest frame count among its links.
TEST(Fleet, PhaseHistogramsCountSteppedShardTicks) {
  for (const int shards : {1, 2, 3, 4}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    const obs::MetricsSnapshot before = obs::Registry::global().snapshot();
    const sim::FleetResult result = run_mixed_fleet(grid_cfg(77, shards, 1));
    const obs::MetricsSnapshot delta =
        obs::Registry::global().snapshot().delta_since(before);
    ASSERT_EQ(result.shards_used, shards);

    // The contiguous split run_fleet makes: the first links % shards shards
    // take one extra link.
    const std::size_t n = result.links.size();
    const std::size_t per_shard = n / static_cast<std::size_t>(shards);
    const std::size_t extra = n % static_cast<std::size_t>(shards);
    std::uint64_t stepped = 0;
    std::size_t begin = 0;
    for (std::size_t s = 0; s < static_cast<std::size_t>(shards); ++s) {
      const std::size_t end = begin + per_shard + (s < extra ? 1 : 0);
      std::int64_t longest = 0;
      for (std::size_t i = begin; i < end; ++i) {
        longest = std::max(longest, result.links[i].frames);
      }
      stepped += static_cast<std::uint64_t>(longest);
      begin = end;
    }
    for (const char* name :
         {"fleet.gather_us", "fleet.decide_us", "fleet.scatter_us"}) {
      const auto* hist = delta.find_histogram(name);
      ASSERT_NE(hist, nullptr) << name;
      EXPECT_EQ(hist->data.count, stepped) << name;
    }
  }
}

// The lazy frame PDP, counted through the observation-only
// phy.pdp_materialized (the eager observe() of a rebaseline never bumps
// it): RA-first and BA-first fleets synthesize no frame PDP at all, and
// LiBRA synthesizes exactly one per feature row it classifies.
TEST(Fleet, FramePdpMaterializedOncePerFeatureRow) {
  const auto delta_of = [](const obs::MetricsSnapshot& delta,
                           const char* name) -> std::uint64_t {
    const auto* counter = delta.find_counter(name);
    return counter == nullptr ? 0 : counter->value;
  };
  const auto run_counted = [](std::span<const sim::FleetLink> members,
                              sim::FleetResult& result) {
    const obs::MetricsSnapshot before = obs::Registry::global().snapshot();
    result = sim::run_fleet(members, grid_cfg(77, 0, 1));
    return obs::Registry::global().snapshot().delta_since(before);
  };
  const array::Codebook codebook;

  const sim::FleetWorld libra_world = lobby_world(&codebook, mixed_specs());
  sim::FleetResult libra;
  const obs::MetricsSnapshot libra_delta =
      run_counted(libra_world.members(), libra);
  ASSERT_GT(libra.batched_rows, 0);
  EXPECT_EQ(delta_of(libra_delta, "controller.degraded_decisions"), 0u);
  EXPECT_EQ(delta_of(libra_delta, "phy.pdp_materialized"),
            static_cast<std::uint64_t>(libra.batched_rows));

  std::vector<sim::StationSpec> heuristic = mixed_specs();
  for (sim::StationSpec& spec : heuristic) spec.classifier = nullptr;
  const sim::FleetWorld ra_world = lobby_world(&codebook, heuristic);
  sim::FleetResult ra;
  EXPECT_EQ(delta_of(run_counted(ra_world.members(), ra),
                     "phy.pdp_materialized"),
            0u);
  EXPECT_GT(ra.link_frames, 0);

  const sim::FleetWorld ba_world = lobby_world(&codebook, heuristic);
  const libra::testing::BaFirstFleet ba_fleet = libra::testing::ba_first_fleet(
      ba_world.members(), &sim::golden_error_model());
  sim::FleetResult ba;
  EXPECT_EQ(delta_of(run_counted(ba_fleet.members, ba),
                     "phy.pdp_materialized"),
            0u);
  EXPECT_GT(ba.link_frames, 0);
}

#endif  // LIBRA_OBS_ENABLED

// A ~1k-link mixed-impairment fleet over a small codebook (5 beams keeps
// the per-link association sweep cheap enough to run a thousand of them in
// a unit test). Stations cycle through stationary / walker / blockage /
// interference worlds, a third run the RA-first baseline (two classifier
// groups per shard), and every 7th finishes early.
sim::FleetResult run_scale_fleet(const array::Codebook* codebook, int n,
                                 std::uint64_t seed, int shards,
                                 int num_threads) {
  std::vector<sim::StationSpec> specs(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    const geom::Vec2 pos{8.0 + (i % 11), 3.0 + (i % 5)};
    sim::StationSpec& spec = specs[static_cast<std::size_t>(i)];
    spec.client = pos;
    spec.classifier = (i % 3 == 2) ? nullptr : &sim::golden_classifier();
    spec.script.duration_ms = (i % 7 == 6) ? 30.0 : 60.0;  // early finishers
    switch (i % 4) {
      case 1:
        spec.script.rx_trajectory = sim::Trajectory::walk(
            pos, {pos.x + 3.0, pos.y + 1.0}, spec.script.duration_ms,
            geom::Vec2{2, 6});
        break;
      case 2:
        spec.script.blockage.push_back({15.0, 45.0, {{6, 6}, 0.3, 35.0}});
        break;
      case 3:
        spec.script.interference.push_back(
            {10.0, 40.0, {{pos.x + 2.0, 1.0}, 50.0, 0.5}});
        break;
      default:
        break;
    }
  }
  const sim::FleetWorld world = lobby_world(codebook, std::move(specs));
  sim::FleetConfig cfg = grid_cfg(seed, shards, num_threads);
  cfg.keep_frame_logs = true;
  return sim::run_fleet(world.members(), cfg);
}

// Fleet-scale shard/thread invariance: the 1k-link run must produce
// bit-identical SessionResults AND the same frame-log digest at every
// point of the shard/thread grid.
TEST(Fleet, ThousandLinkShardThreadInvariant) {
  array::CodebookConfig cb;
  cb.num_beams = 5;
  const array::Codebook codebook(cb);
  constexpr int kLinks = 1000;

  const sim::FleetResult baseline =
      run_scale_fleet(&codebook, kLinks, 123, /*shards=*/1,
                      /*num_threads=*/1);
  ASSERT_EQ(baseline.links.size(), static_cast<std::size_t>(kLinks));
  EXPECT_EQ(baseline.shards_used, 1);
  EXPECT_GT(baseline.ticks, 0);
  EXPECT_GT(baseline.batched_rows, 0);  // classifier groups actually batched
  EXPECT_GT(baseline.link_frames, static_cast<std::int64_t>(kLinks));
  const std::uint64_t digest = sim::degradation_digest(baseline);

  constexpr struct {
    int shards;
    int threads;
  } kGrid[] = {{8, 1}, {0, 4}, {16, 4}};
  for (const auto& g : kGrid) {
    const sim::FleetResult run =
        run_scale_fleet(&codebook, kLinks, 123, g.shards, g.threads);
    const std::string tag = "shards=" + std::to_string(g.shards) +
                            " threads=" + std::to_string(g.threads);
    EXPECT_GT(run.shards_used, 1) << tag;
    EXPECT_EQ(sim::degradation_digest(run), digest) << tag;
    EXPECT_EQ(run.ticks, baseline.ticks) << tag;
    EXPECT_EQ(run.batched_rows, baseline.batched_rows) << tag;
    EXPECT_EQ(run.link_frames, baseline.link_frames) << tag;
    expect_fleets_identical(baseline, run, tag);
  }
}

// Faulted sharded replay: with a fault plan attached, a run is a pure
// function of (seed, fault seed) -- re-running at a different shard/thread
// count, or simply re-running, replays bit for bit.
TEST(Fleet, FaultedShardedRunReplaysBitForBit) {
  const auto run = [](int shards, int threads) {
    sim::FleetConfig cfg = grid_cfg(77, shards, threads);
    cfg.faults = faults::demo_plan(1234);
    return run_mixed_fleet(cfg);
  };
  const sim::FleetResult serial = run(1, 1);
  const sim::FleetResult sharded = run(3, 4);
  const sim::FleetResult replay = run(3, 4);
  expect_fleets_identical(serial, sharded, "faulted sharded");
  expect_fleets_identical(sharded, replay, "faulted replay");
}

// The counter-overflow regression: every accounting field that aggregates
// across a 10^5-10^6-link fleet must be 64-bit, and accumulating past
// INT32_MAX through the actual result fields must not wrap.
TEST(Fleet, AccountingFieldsAreInt64) {
  static_assert(
      std::is_same_v<decltype(sim::FleetResult::ticks), std::int64_t>);
  static_assert(
      std::is_same_v<decltype(sim::FleetResult::batched_rows), std::int64_t>);
  static_assert(
      std::is_same_v<decltype(sim::FleetResult::link_frames), std::int64_t>);
  static_assert(
      std::is_same_v<decltype(sim::SessionResult::frames), std::int64_t>);
  static_assert(std::is_same_v<decltype(sim::SessionResult::adaptations_ba),
                               std::int64_t>);
  static_assert(std::is_same_v<decltype(sim::SessionResult::adaptations_ra),
                               std::int64_t>);
  static_assert(
      std::is_same_v<decltype(sim::SessionResult::outages), std::int64_t>);

  // The engine's accumulation pattern: per-group row counts (size_t)
  // summed into the result, 30 batches of 1e8 rows -- minutes of a
  // 10^5-link run -- lands at 3e9, past any int32.
  sim::FleetResult result;
  const std::size_t group_rows = 100'000'000;
  for (int i = 0; i < 30; ++i) {
    result.batched_rows += static_cast<std::int64_t>(group_rows);
    result.link_frames += static_cast<std::int64_t>(group_rows);
  }
  EXPECT_EQ(result.batched_rows, 3'000'000'000LL);
  EXPECT_GT(result.batched_rows,
            static_cast<std::int64_t>(std::numeric_limits<std::int32_t>::max()));
  EXPECT_EQ(result.link_frames, 3'000'000'000LL);
}

TEST(Fleet, EmptyFleetFinishesImmediately) {
  const sim::FleetResult result = sim::run_fleet({}, {});
  EXPECT_TRUE(result.links.empty());
  EXPECT_EQ(result.ticks, 0);
  EXPECT_EQ(result.batched_rows, 0);
}

TEST(Fleet, NullMembersThrow) {
  sim::FleetLink bad;  // all nullptrs
  std::vector<sim::FleetLink> members{bad};
  EXPECT_THROW(sim::run_fleet(members, {}), std::invalid_argument);
}

TEST(Fleet, InvalidScriptThrows) {
  const array::Codebook codebook;
  sim::StationSpec spec{{10, 6}, nullptr, {}};
  spec.script.duration_ms = 0.0;
  const sim::FleetWorld world = lobby_world(&codebook, {spec});
  EXPECT_THROW(sim::run_fleet(world.members(), {}), std::invalid_argument);
}

}  // namespace
}  // namespace libra
