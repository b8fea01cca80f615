// The benchmark's own tests: each output check the workloads run is fed a
// good result (and must pass) and a corrupted one (and must fail).
#include <cstdio>
#include <cstring>
#include <functional>

#include "core/decision_backend.h"
#include "sim/session.h"
#include "workloads.h"
#include "world.h"

namespace perfbench {

namespace {

int g_missed = 0;

void expect(bool ok, const std::string& what) {
  std::printf("selftest %-64s %s\n", what.c_str(), ok ? "ok" : "MISSED");
  if (!ok) ++g_missed;
}

// A backend that is always down: every batch becomes a degraded decision.
class DeadBackend final : public core::DecisionBackend {
 public:
  std::string_view name() const override { return "dead"; }
  bool local() const override { return true; }
  bool available() override { return true; }
  double deadline_ms() const override { return 1.0; }
  std::vector<std::vector<double>> vote_batch(const ml::DataSet&) override {
    throw core::BackendOutageError("selftest: backend down");
  }
};

double next_ulp(double x) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &x, sizeof bits);
  ++bits;
  std::memcpy(&x, &bits, sizeof bits);
  return x;
}

}  // namespace

int run_selftest() {
  FleetModel model;
  SetupTimes times;
  collect_and_train(model.dataset, model.classifier, model.error_model, times);
  array::CodebookConfig cb;
  cb.num_beams = 5;
  model.codebook = std::make_unique<array::Codebook>(cb);
  model.rooms = registry_rooms();
  WorldOptions opt;
  opt.seed = 3;
  opt.duration_ms = 80.0;
  const std::vector<std::size_t> all = iota_indices(12);

  // Fleet checks on a real 12-link fleet.
  World world(model, opt, all);
  expect(!world.finished(0), "unfinished script is detected before a run");
  sim::FleetConfig cfg;
  cfg.seed = opt.seed;
  cfg.num_threads = 2;
  const sim::FleetResult fleet = sim::run_fleet(world.members(), cfg);
  bool all_finished = true;
  for (std::size_t k = 0; k < world.size(); ++k) all_finished &= world.finished(k);
  expect(all_finished, "finished scripts pass the unfinished check");

  World replay_world(model, opt, all);
  std::vector<util::Rng> streams = fleet_streams(opt.seed, all);
  std::vector<sim::SessionResult> replayed;
  for (std::size_t k = 0; k < replay_world.size(); ++k) {
    const sim::FleetLink& m = replay_world.member(k);
    replayed.push_back(sim::run_session(*m.environment, *m.link, *m.controller,
                                        m.script, streams[k]));
  }
  bool replay_equal = true;
  for (std::size_t k = 0; k < all.size(); ++k) {
    replay_equal &= session_mismatch(fleet.links[k], replayed[k]).empty();
  }
  expect(replay_equal, "run_session replay equals run_fleet");

  const std::vector<std::pair<const char*,
                              std::function<void(sim::SessionResult&)>>>
      corruptions = {
          {"bytes_mb", [](sim::SessionResult& r) { r.bytes_mb = next_ulp(r.bytes_mb); }},
          {"avg_goodput_mbps", [](sim::SessionResult& r) { r.avg_goodput_mbps = next_ulp(r.avg_goodput_mbps); }},
          {"frames", [](sim::SessionResult& r) { ++r.frames; }},
          {"adaptations_ba", [](sim::SessionResult& r) { ++r.adaptations_ba; }},
          {"adaptations_ra", [](sim::SessionResult& r) { ++r.adaptations_ra; }},
          {"outages", [](sim::SessionResult& r) { ++r.outages; }},
          {"total_outage_ms", [](sim::SessionResult& r) { r.total_outage_ms = next_ulp(r.total_outage_ms); }},
      };
  const std::uint64_t digest = fleet_digest(fleet.links);
  for (const auto& [field, corrupt] : corruptions) {
    std::vector<sim::SessionResult> bad = replayed;
    corrupt(bad[5]);
    expect(session_mismatch(fleet.links[5], bad[5]) == field,
           std::string("replay check catches a corrupted ") + field);
    expect(fleet_digest(bad) != digest,
           std::string("fleet digest moves with a corrupted ") + field);
  }

  // Degraded decisions: the registry counter the workloads gate on.
  World dead_world(model, opt, all);
  DeadBackend dead;
  sim::FleetConfig dead_cfg = cfg;
  dead_cfg.backend = &dead;
  const obs::MetricsSnapshot before = obs::Registry::global().snapshot();
  sim::run_fleet(dead_world.members(), dead_cfg);
  const obs::MetricsSnapshot delta =
      obs::Registry::global().snapshot().delta_since(before);
  expect(counter_of(delta, "controller.degraded_decisions") > 0,
         "a dead backend shows up as degraded decisions");

  // daemon-serve reply and push checks.
  ml::DataSet rows(trace::FeatureVector::kDim);
  for (std::size_t r = 0; r < 32; ++r) {
    rows.add(trace::extract_features(
                 model.dataset.records[r % model.dataset.records.size()]).v,
             0);
  }
  const std::vector<std::vector<double>> want =
      model.classifier.forest().vote_fractions_batch(rows);
  expect(votes_match(want, want), "identical replies pass the reply check");
  std::vector<std::vector<double>> bad = want;
  bad[7][1] = next_ulp(bad[7][1]);
  expect(!votes_match(bad, want), "reply check catches a one-ulp vote change");
  bad = want;
  bad.pop_back();
  expect(!votes_match(bad, want), "reply check catches a missing row");
  bad = want;
  bad[0].push_back(0.0);
  expect(!votes_match(bad, want), "reply check catches an extra class");
  expect(!push_acked(std::nullopt), "push check catches a missing ack");
  rpc::AckMsg nack;
  nack.ok = false;
  expect(!push_acked(nack), "push check catches a rejected push");
  expect(push_acked(rpc::AckMsg{}), "an accepted push passes the push check");
  return g_missed;
}

}  // namespace perfbench
