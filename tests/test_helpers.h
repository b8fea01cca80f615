// Shared fixtures for the trace/core/sim tests: hand-built PairTraces and
// CaseRecords with known ground truth, so labeling and simulation can be
// checked against closed-form expectations, plus the one bit-for-bit
// comparator of the fleet determinism suites.
#pragma once

#include <gtest/gtest.h>

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/controller.h"
#include "sim/fleet.h"
#include "sim/golden.h"
#include "trace/collector.h"

namespace libra::testing {

inline constexpr int kNumMcs = 9;

// A PairTrace where MCSs [0, highest_working] deliver their full rate and
// everything above delivers nothing.
inline trace::PairTrace make_trace(int highest_working,
                                   double rate_scale = 1.0) {
  const double rates[kNumMcs] = {300,  385,  770,  1155, 1540,
                                 1925, 2310, 3080, 4750};
  trace::PairTrace t;
  t.tx_beam = 0;
  t.rx_beam = 0;
  t.snr_db = 10.0 + 2.0 * highest_working;
  t.noise_dbm = -74.0;
  t.tof_ns = 20.0;
  t.pdp.assign(64, 1e-12);
  t.pdp[20] = 1e-6;
  t.csi.assign(32, 1.0);
  t.throughput_mbps.resize(kNumMcs);
  t.cdr.resize(kNumMcs);
  for (int m = 0; m < kNumMcs; ++m) {
    const bool works = m <= highest_working;
    t.cdr[(std::size_t)m] = works ? 0.95 : 0.0;
    t.throughput_mbps[(std::size_t)m] =
        works ? rates[m] * 0.92 * rate_scale : 0.0;
  }
  return t;
}

// A case where the initial state supports MCS `init`, the impaired state
// supports `after_ra` on the initial pair, `after_ba` on the new best pair,
// and `after_failover` on the MOCA-style failover pair (defaults to the
// new-best behavior). after_* = -1 means nothing works on that pair.
inline trace::CaseRecord make_record(int init, int after_ra, int after_ba,
                                     trace::Impairment imp =
                                         trace::Impairment::kDisplacement,
                                     int after_failover = -2) {
  trace::CaseRecord rec;
  rec.impairment = imp;
  rec.env_name = "synthetic";
  rec.position_id = "synthetic#0";
  rec.init_best = make_trace(init);
  rec.init_mcs = init;
  rec.new_at_init_pair = make_trace(after_ra);
  rec.new_best = make_trace(after_ba);
  rec.init_failover = make_trace(init > 0 ? init - 1 : 0);
  rec.new_at_failover =
      make_trace(after_failover == -2 ? after_ba : after_failover);
  return rec;
}

// Bit-for-bit equality of two fleet runs: every per-link SessionResult
// field and every frame-log entry (floats compared with ==, the
// determinism contract), plus the degradation digests.
inline void expect_fleets_identical(const sim::FleetResult& a,
                                    const sim::FleetResult& b,
                                    const std::string& tag = "") {
  ASSERT_EQ(a.links.size(), b.links.size()) << tag;
  for (std::size_t i = 0; i < a.links.size(); ++i) {
    const sim::SessionResult& x = a.links[i];
    const sim::SessionResult& y = b.links[i];
    EXPECT_EQ(x.frames, y.frames) << tag << " link " << i;
    EXPECT_EQ(x.bytes_mb, y.bytes_mb) << tag << " link " << i;
    EXPECT_EQ(x.avg_goodput_mbps, y.avg_goodput_mbps) << tag << " link " << i;
    EXPECT_EQ(x.adaptations_ba, y.adaptations_ba) << tag << " link " << i;
    EXPECT_EQ(x.adaptations_ra, y.adaptations_ra) << tag << " link " << i;
    EXPECT_EQ(x.outages, y.outages) << tag << " link " << i;
    EXPECT_EQ(x.total_outage_ms, y.total_outage_ms) << tag << " link " << i;
    ASSERT_EQ(x.frame_log.size(), y.frame_log.size()) << tag << " link " << i;
    for (std::size_t f = 0; f < x.frame_log.size(); ++f) {
      const core::FrameReport& p = x.frame_log[f];
      const core::FrameReport& q = y.frame_log[f];
      ASSERT_EQ(p.t_ms, q.t_ms) << tag << " link " << i << " frame " << f;
      ASSERT_EQ(p.mcs, q.mcs) << tag << " link " << i << " frame " << f;
      ASSERT_EQ(p.goodput_mbps, q.goodput_mbps)
          << tag << " link " << i << " frame " << f;
      ASSERT_EQ(p.ack, q.ack) << tag << " link " << i << " frame " << f;
      ASSERT_EQ(p.action, q.action) << tag << " link " << i << " frame " << f;
    }
  }
  EXPECT_EQ(sim::degradation_digest(a), sim::degradation_digest(b)) << tag;
}

// A BA-first fleet on a world's stations (sim::FleetWorld builds only LiBRA
// and RA-first ones): every member re-pointed at a BaFirstController on its
// own link, while the world's controllers sit idle.
struct BaFirstFleet {
  std::vector<std::unique_ptr<core::BaFirstController>> controllers;
  std::vector<sim::FleetLink> members;
};
inline BaFirstFleet ba_first_fleet(std::span<const sim::FleetLink> world,
                                   const phy::ErrorModel* error_model) {
  BaFirstFleet fleet;
  for (const sim::FleetLink& member : world) {
    fleet.controllers.push_back(std::make_unique<core::BaFirstController>(
        member.link, error_model, core::ControllerConfig{}));
    sim::FleetLink ba = member;
    ba.controller = fleet.controllers.back().get();
    fleet.members.push_back(std::move(ba));
  }
  return fleet;
}

}  // namespace libra::testing
