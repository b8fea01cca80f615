#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <stdexcept>

#include "core/controller.h"
#include "env/registry.h"
#include "sim/golden.h"
#include "sim/session.h"

namespace libra {
namespace {

struct LiveFixture : ::testing::Test {
  LiveFixture()
      : em(&table),
        lobby(env::make_lobby()),
        tx({2, 6}, 0.0, &codebook),
        rx({10, 6}, 180.0, &codebook),
        link(&lobby, &tx, &rx) {}

  phy::McsTable table;
  phy::ErrorModel em;
  array::Codebook codebook;
  env::Environment lobby;
  array::PhasedArray tx;
  array::PhasedArray rx;
  channel::Link link;
};

// One frame through the controller's observe -> decide -> apply phases on
// a single Rng, the way a serial session drives a link.
core::FrameReport run_frame(core::LinkController& ctrl, util::Rng& rng) {
  core::DecisionRequest request = ctrl.observe(rng);
  const trace::Action verdict = ctrl.decide(request, rng);
  ctrl.apply(verdict, request, rng);
  return request.report;
}

// ---------- Trajectory ----------

TEST(Trajectory, StationaryHoldsPose) {
  const auto t = sim::Trajectory::stationary({3, 4}, 45.0);
  const auto w = t.at(5000.0);
  EXPECT_DOUBLE_EQ(w.position.x, 3.0);
  EXPECT_DOUBLE_EQ(w.boresight_deg, 45.0);
}

TEST(Trajectory, WalkInterpolatesLinearly) {
  const auto t = sim::Trajectory::walk({0, 0}, {10, 0}, 1000.0);
  EXPECT_DOUBLE_EQ(t.at(0.0).position.x, 0.0);
  EXPECT_DOUBLE_EQ(t.at(500.0).position.x, 5.0);
  EXPECT_DOUBLE_EQ(t.at(1000.0).position.x, 10.0);
  EXPECT_DOUBLE_EQ(t.at(2000.0).position.x, 10.0);  // clamped
}

TEST(Trajectory, WalkFacingFixedTarget) {
  // Walking away while facing the origin: orientation points back.
  const auto t = sim::Trajectory::walk({5, 0}, {15, 0}, 1000.0,
                                       geom::Vec2{0, 0});
  EXPECT_NEAR(t.at(0.0).boresight_deg, 180.0, 1e-9);
  EXPECT_NEAR(t.at(1000.0).boresight_deg, 180.0, 1e-9);
}

TEST(Trajectory, RotateSweepsOrientation) {
  const auto t = sim::Trajectory::rotate({1, 1}, 0.0, 90.0, 1000.0);
  EXPECT_NEAR(t.at(500.0).boresight_deg, 45.0, 1e-9);
  EXPECT_DOUBLE_EQ(t.at(500.0).position.x, 1.0);
}

TEST(Trajectory, UnsortedWaypointsThrow) {
  EXPECT_THROW(sim::Trajectory({{100.0, {0, 0}, 0.0}, {50.0, {1, 1}, 0.0}}),
               std::invalid_argument);
}

// ---------- LinkController basics ----------

TEST_F(LiveFixture, StartTrainsBeamsAndPicksWorkingMcs) {
  core::RaFirstController ctrl(&link, &em, {});
  util::Rng rng(1);
  ctrl.start(rng);
  // Straight-ahead geometry: near-center beams, a working MCS.
  EXPECT_NEAR(ctrl.tx_beam(), 12, 1);
  EXPECT_NEAR(ctrl.rx_beam(), 12, 1);
  EXPECT_GE(ctrl.mcs(), 0);
  const double snr = link.snr_db(ctrl.tx_beam(), ctrl.rx_beam());
  EXPECT_GE(em.expected_throughput_mbps(ctrl.mcs(), snr), 150.0);
}

TEST_F(LiveFixture, SteadyStateDelivers) {
  core::RaFirstController ctrl(&link, &em, {});
  util::Rng rng(2);
  ctrl.start(rng);
  double goodput = 0.0;
  for (int i = 0; i < 100; ++i) goodput += run_frame(ctrl, rng).goodput_mbps;
  EXPECT_GT(goodput / 100, 500.0);
}

TEST_F(LiveFixture, TimeAdvancesByFat) {
  core::ControllerConfig cfg;
  cfg.fat_ms = 2.0;
  core::RaFirstController ctrl(&link, &em, cfg);
  util::Rng rng(3);
  ctrl.start(rng);
  const double t0 = ctrl.time_ms();
  run_frame(ctrl, rng);
  EXPECT_NEAR(ctrl.time_ms() - t0, 2.0, 1e-9);
}

TEST_F(LiveFixture, BlockageMakesRaFirstWalkDown) {
  core::RaFirstController ctrl(&link, &em, {});
  util::Rng rng(4);
  ctrl.start(rng);
  for (int i = 0; i < 20; ++i) run_frame(ctrl, rng);
  const phy::McsIndex before = ctrl.mcs();
  // Partial blockage: initial MCS breaks but a lower one still works.
  lobby.add_blocker({{6, 6}, 0.25, 12.0});
  bool triggered_ra = false;
  for (int i = 0; i < 60; ++i) {
    triggered_ra |= run_frame(ctrl, rng).action == trace::Action::kRA;
  }
  EXPECT_TRUE(triggered_ra);
  EXPECT_LT(ctrl.mcs(), before);
}

TEST_F(LiveFixture, HardBlockageMakesBaFirstSwitchBeams) {
  core::BaFirstController ctrl(&link, &em, {});
  util::Rng rng(5);
  ctrl.start(rng);
  for (int i = 0; i < 10; ++i) run_frame(ctrl, rng);
  const auto before_tx = ctrl.tx_beam();
  lobby.add_blocker({{6, 6}, 0.3, 35.0});
  bool triggered_ba = false;
  for (int i = 0; i < 60; ++i) {
    triggered_ba |= run_frame(ctrl, rng).action == trace::Action::kBA;
  }
  EXPECT_TRUE(triggered_ba);
  // The LOS is gone: the controller must have re-trained onto another pair
  // (or at minimum changed something and recovered some goodput).
  double goodput = 0.0;
  for (int i = 0; i < 50; ++i) goodput += run_frame(ctrl, rng).goodput_mbps;
  EXPECT_GT(goodput / 50, 150.0);
  (void)before_tx;
}

TEST_F(LiveFixture, RaFirstFallsBackToBaWhenNothingWorks) {
  core::RaFirstController ctrl(&link, &em, {});
  util::Rng rng(6);
  ctrl.start(rng);
  for (int i = 0; i < 10; ++i) run_frame(ctrl, rng);
  // Full blockage: no MCS works on the old pair; Algorithm 1's RA walk must
  // fall back to BA and recover via a reflection.
  lobby.add_blocker({{6, 6}, 0.3, 40.0});
  double late_goodput = 0.0;
  for (int i = 0; i < 300; ++i) {
    const auto r = run_frame(ctrl, rng);
    if (i >= 250) late_goodput += r.goodput_mbps;
  }
  EXPECT_GT(late_goodput / 50, 150.0);
}

TEST_F(LiveFixture, UpProbingRecoversAfterBlockerLeaves) {
  core::RaFirstController ctrl(&link, &em, {});
  util::Rng rng(7);
  ctrl.start(rng);
  for (int i = 0; i < 10; ++i) run_frame(ctrl, rng);
  const phy::McsIndex healthy = ctrl.mcs();
  lobby.add_blocker({{6, 6}, 0.25, 12.0});
  for (int i = 0; i < 80; ++i) run_frame(ctrl, rng);
  EXPECT_LT(ctrl.mcs(), healthy);
  lobby.clear_blockers();
  for (int i = 0; i < 400; ++i) run_frame(ctrl, rng);
  EXPECT_GE(ctrl.mcs(), healthy - 1);
}

TEST_F(LiveFixture, ConfigRejectsNonPositiveFat) {
  core::ControllerConfig cfg;
  cfg.fat_ms = 0.0;
  EXPECT_THROW(core::RaFirstController(&link, &em, cfg),
               std::invalid_argument);
  cfg.fat_ms = -1.0;
  EXPECT_THROW(core::RaFirstController(&link, &em, cfg),
               std::invalid_argument);
}

TEST_F(LiveFixture, WalkFramesCarryNoDecision) {
  core::RaFirstController ctrl(&link, &em, {});
  util::Rng rng(22);
  ctrl.start(rng);
  // Full blockage forces the RA walk; while walking, observe() must mark
  // the frame as not decision-due and apply() must leave the report alone.
  lobby.add_blocker({{6, 6}, 0.3, 40.0});
  bool saw_walk_frame = false;
  for (int i = 0; i < 40; ++i) {
    core::DecisionRequest request = ctrl.observe(rng);
    const trace::Action verdict = ctrl.decide(request, rng);
    if (!request.decision_due) {
      saw_walk_frame = true;
      EXPECT_FALSE(request.needs_inference());
      EXPECT_EQ(verdict, trace::Action::kNA);
    }
    ctrl.apply(verdict, request, rng);
  }
  EXPECT_TRUE(saw_walk_frame);
}

// Exposes the protected materialize and feature steps.
class FeatureProbe : public core::RaFirstController {
 public:
  using core::RaFirstController::RaFirstController;
  using core::LinkController::features_against_baseline;
  using core::LinkController::materialize_pdp;
};

TEST_F(LiveFixture, FeaturesFromAnUnmaterializedRequestThrow) {
  FeatureProbe ctrl(&link, &em, {});
  util::Rng rng(1);
  ctrl.start(rng);
  // RA-first never reads the PDP, so its requests keep the ticket.
  core::DecisionRequest request = ctrl.observe(rng);
  ASSERT_TRUE(request.pending_pdp.has_value());
  EXPECT_TRUE(request.obs.pdp.empty());
  EXPECT_THROW(ctrl.features_against_baseline(request), std::logic_error);

  ctrl.materialize_pdp(request);
  EXPECT_FALSE(request.pending_pdp.has_value());
  EXPECT_EQ(request.obs.pdp.size(), 256u);
  const trace::FeatureVector f = ctrl.features_against_baseline(request);
  for (const double v : f.v) EXPECT_TRUE(std::isfinite(v));

  // The ticket, not vector length, is the guard: a materialized observation
  // that a truncation fault shortened still builds features.
  request.obs.pdp.resize(1);
  request.obs.csi.resize(1);
  EXPECT_NO_THROW(ctrl.features_against_baseline(request));
}

TEST_F(LiveFixture, LibraControllerNeedsClassifier) {
  EXPECT_THROW(core::LibraController(&link, &em, nullptr),
               std::invalid_argument);
}

TEST_F(LiveFixture, LibraControllerRunsAndAdapts) {
  core::LibraController ctrl(&link, &em, &sim::golden_classifier(), {});
  util::Rng rng(8);
  ctrl.start(rng);
  for (int i = 0; i < 20; ++i) run_frame(ctrl, rng);
  lobby.add_blocker({{6, 6}, 0.3, 35.0});
  int adaptations = 0;
  for (int i = 0; i < 100; ++i) {
    adaptations += run_frame(ctrl, rng).action != trace::Action::kNA;
  }
  EXPECT_GT(adaptations, 0);
  double goodput = 0.0;
  for (int i = 0; i < 50; ++i) goodput += run_frame(ctrl, rng).goodput_mbps;
  EXPECT_GT(goodput / 50, 150.0);
}

// ---------- sessions ----------

TEST_F(LiveFixture, StaticSessionStaysUp) {
  core::RaFirstController ctrl(&link, &em, {});
  sim::SessionScript script;
  script.duration_ms = 3000.0;
  script.rx_trajectory = sim::Trajectory::stationary({10, 6}, 180.0);
  util::Rng rng(9);
  const auto r = sim::run_session(lobby, link, ctrl, script, rng);
  EXPECT_GT(r.avg_goodput_mbps, 500.0);
  EXPECT_EQ(r.outages, 0);
  EXPECT_GE(r.frames, 290);
}

TEST_F(LiveFixture, BlockageEpisodeCausesOneOutageWindow) {
  core::BaFirstController ctrl(&link, &em, {});
  sim::SessionScript script;
  script.duration_ms = 5000.0;
  script.rx_trajectory = sim::Trajectory::stationary({10, 6}, 180.0);
  script.blockage.push_back({2000.0, 3000.0, {{6, 6}, 0.3, 35.0}});
  util::Rng rng(10);
  const auto r = sim::run_session(lobby, link, ctrl, script, rng);
  EXPECT_GE(r.outages, 1);
  EXPECT_GT(r.adaptations_ba, 0);
  // The outage must be shorter than the blockage: adaptation worked.
  EXPECT_LT(r.total_outage_ms, 1000.0);
}

TEST_F(LiveFixture, InterferenceEpisodeAppliesAndClears) {
  core::RaFirstController ctrl(&link, &em, {});
  sim::SessionScript script;
  script.duration_ms = 3000.0;
  script.rx_trajectory = sim::Trajectory::stationary({10, 6}, 180.0);
  script.interference.push_back({1000.0, 2000.0, {{10, 1}, 50.0, 0.5}});
  util::Rng rng(11);
  const auto r =
      sim::run_session(lobby, link, ctrl, script, rng, /*log=*/true);
  ASSERT_FALSE(r.frame_log.empty());
  // Goodput during the burst window is depressed relative to before.
  double before = 0.0, during = 0.0;
  int nb = 0, nd = 0;
  for (const auto& f : r.frame_log) {
    if (f.t_ms < 900) {
      before += f.goodput_mbps;
      ++nb;
    } else if (f.t_ms >= 1100 && f.t_ms < 1900) {
      during += f.goodput_mbps;
      ++nd;
    }
  }
  ASSERT_GT(nb, 0);
  ASSERT_GT(nd, 0);
  EXPECT_LT(during / nd, 0.85 * (before / nb));
}

TEST_F(LiveFixture, WalkSessionKeepsLinkAlive) {
  core::LibraController ctrl(&link, &em, &sim::golden_classifier(), {});
  sim::SessionScript script;
  script.duration_ms = 8000.0;
  script.rx_trajectory = sim::Trajectory::walk(
      {6, 6}, {20, 6}, 8000.0, geom::Vec2{2, 6});
  util::Rng rng(12);
  const auto r = sim::run_session(lobby, link, ctrl, script, rng);
  EXPECT_GT(r.avg_goodput_mbps, 300.0);
  EXPECT_LT(r.total_outage_ms, 1500.0);
}

TEST_F(LiveFixture, SessionRejectsNonPositiveDuration) {
  core::RaFirstController ctrl(&link, &em, {});
  sim::SessionScript script;
  script.duration_ms = 0.0;
  util::Rng rng(14);
  EXPECT_THROW(sim::run_session(lobby, link, ctrl, script, rng),
               std::invalid_argument);
  script.duration_ms = -100.0;
  EXPECT_THROW(sim::run_session(lobby, link, ctrl, script, rng),
               std::invalid_argument);
}

TEST_F(LiveFixture, SessionFrameLogOnlyWhenRequested) {
  core::RaFirstController ctrl(&link, &em, {});
  sim::SessionScript script;
  script.duration_ms = 500.0;
  script.rx_trajectory = sim::Trajectory::stationary({10, 6}, 180.0);
  util::Rng rng(13);
  const auto quiet = sim::run_session(lobby, link, ctrl, script, rng, false);
  EXPECT_TRUE(quiet.frame_log.empty());
}

}  // namespace
}  // namespace libra
