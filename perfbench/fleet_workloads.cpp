// fleet-steady and fleet-associate: timed sim::run_fleet repetitions on a
// seeded world, then a traced serial sample of the same links, an
// untraced run_session replay of that sample, and layer probes on copies
// of sampled link states.
#include <algorithm>
#include <map>
#include <memory>

#include "core/decision_backend.h"
#include "core/trainer.h"
#include "probes.h"
#include "sim/session.h"
#include "spans.h"
#include "workloads.h"
#include "world.h"

namespace perfbench {

namespace {

struct FleetParams {
  WorldOptions world;
  std::size_t links = 0;  // links per run_fleet
  // Which phase the phase/latency metrics time: the steady-state ticks, or
  // the initial association before the first tick.
  bool association_phase = false;
  bool trainer = false;   // attach a FleetTrainer row stream + swap slot
  std::size_t sample = 0;       // traced and replayed links
  std::size_t probe_links = 0;  // sampled links whose states are probed
};

// Timed repetitions: at least kMinReps, then more until --seconds is spent.
constexpr std::size_t kMinReps = 3;
constexpr std::size_t kMaxReps = 64;

// The set-up's products. Declaration order is teardown order in reverse:
// the world points into the model.
struct FleetSetup {
  std::unique_ptr<FleetModel> model;
  std::unique_ptr<core::FleetTrainer> trainer;
  std::unique_ptr<World> world;
};

std::unique_ptr<core::FleetTrainer> make_trainer(const FleetModel& model) {
  auto trainer = std::make_unique<core::FleetTrainer>();
  trainer->seed_model(model.classifier.forest());
  return trainer;
}

FleetSetup make_setup(const FleetParams& p, SetupTimes& times) {
  FleetSetup s;
  s.model = std::make_unique<FleetModel>();
  collect_and_train(s.model->dataset, s.model->classifier,
                    s.model->error_model, times);
  double cpu0 = process_cpu_s();
  array::CodebookConfig cb;
  cb.num_beams = p.world.num_beams;
  s.model->codebook = std::make_unique<array::Codebook>(cb);
  s.model->rooms = registry_rooms();
  const std::vector<std::size_t> all = iota_indices(p.links);
  s.world = std::make_unique<World>(*s.model, p.world, all);
  times.world_s = cpu_seconds_since(cpu0);
  if (p.trainer) {
    cpu0 = process_cpu_s();
    s.trainer = make_trainer(*s.model);
    times.server_s = cpu_seconds_since(cpu0);
  }
  return s;
}

// A DecisionBackend decorator that records an "ml.vote_batch" span around
// every vote_batch call of the backend it wraps.
class TimedBackend final : public core::DecisionBackend {
 public:
  TimedBackend(core::DecisionBackend* inner, SpanRecorder* rec)
      : inner_(inner), rec_(rec) {}
  std::string_view name() const override { return "timed"; }
  bool local() const override { return inner_->local(); }
  bool available() override { return inner_->available(); }
  double deadline_ms() const override { return inner_->deadline_ms(); }
  std::vector<std::vector<double>> vote_batch(
      const ml::DataSet& rows) override {
    SpanRecorder::Scope span(rec_, "ml.vote_batch");
    rows_ += static_cast<std::int64_t>(rows.size());
    return inner_->vote_batch(rows);
  }
  std::int64_t rows() const { return rows_; }

 private:
  core::DecisionBackend* inner_;  // non-owning
  SpanRecorder* rec_;             // non-owning
  std::int64_t rows_ = 0;
};

struct RepStats {
  double wall_s = 0.0;
  double tick_s = 0.0;  // sum of FleetResult::tick_latency_us
  double cpu_s = 0.0;   // process CPU time over the run_fleet call
  double ref = 0.0;      // reference speed around the call
  std::int64_t ticks = 0;
  std::int64_t link_frames = 0;
  std::int64_t rows = 0;
  std::uint64_t digest = 0;
};

// `count` distinct link indices out of [0, n), seeded, ascending.
std::vector<std::size_t> sample_indices(std::uint64_t seed, std::size_t n,
                                        std::size_t count) {
  std::vector<std::size_t> all = iota_indices(n);
  util::Rng rng(mix64(seed ^ 0x7ace));
  count = std::min(count, n);
  for (std::size_t k = 0; k < count; ++k) {
    const auto j = static_cast<std::size_t>(
        rng.uniform_int(static_cast<int>(k), static_cast<int>(n - 1)));
    std::swap(all[k], all[j]);
  }
  all.resize(count);
  std::sort(all.begin(), all.end());
  return all;
}

// Links whose result differs from the fleet's result for the same global
// index; the first mismatch is described in *first.
std::int64_t count_mismatches(std::span<const sim::SessionResult> fleet,
                              std::span<const std::size_t> indices,
                              std::span<const sim::SessionResult> sample,
                              std::string* first) {
  std::int64_t bad = 0;
  for (std::size_t k = 0; k < indices.size(); ++k) {
    const std::string what = session_mismatch(fleet[indices[k]], sample[k]);
    if (what.empty()) continue;
    if (bad == 0 && first != nullptr) {
      *first = fmt("link %zu: %s", indices[k], what.c_str());
    }
    ++bad;
  }
  return bad;
}

// The traced serial sample: every link driven through start / observe /
// classify_batch / apply with a span around each call.
struct TracedSample {
  std::vector<sim::SessionResult> results;
  SpanRecorder recorder{0};
  std::int64_t classified_rows = 0;
  std::int64_t vote_rows = 0;
  std::int64_t degraded = 0;
  double wall_s = 0.0;
};

void run_traced_sample(World& world, std::vector<util::Rng>& streams,
                       core::DecisionBackend* inner, TracedSample& out) {
  SpanRecorder* rec = &out.recorder;
  TimedBackend timed(inner, rec);
  out.results.resize(world.size());
  const Clock::time_point t0 = Clock::now();
  for (std::size_t k = 0; k < world.size(); ++k) {
    SpanRecorder::Scope root(rec, "bench.link");
    sim::FleetLink& m = world.member(k);
    util::Rng& rng = streams[k];
    sim::SessionDriver driver(*m.environment, *m.link, *m.controller,
                              m.script);
    {
      SpanRecorder::Scope span(rec, "sim.start");
      driver.start(rng);
    }
    while (!driver.done()) {
      core::DecisionRequest req;
      {
        SpanRecorder::Scope span(rec, "sim.observe");
        req = driver.observe(rng);
      }
      trace::Action verdict = req.resolved_without_inference();
      if (req.needs_inference()) {
        SpanRecorder::Scope span(rec, "core.classify_batch");
        util::Rng* row_rng = &rng;
        try {
          verdict = req.classifier->classify_batch(
              std::span(&req.features, 1), std::span(&row_rng, 1), &timed)[0];
        } catch (const core::BackendOutageError&) {
          verdict = req.outage_fallback;
          ++out.degraded;
        }
        ++out.classified_rows;
      }
      {
        SpanRecorder::Scope span(rec, "sim.apply");
        driver.apply(verdict, req, rng);
      }
    }
    SpanRecorder::Scope span(rec, "sim.finish");
    out.results[k] = driver.finish();
  }
  out.wall_s = seconds_since(t0);
  out.vote_rows = timed.rows();
}

// Probe states: each link's post-association state and a few mid-session
// frames, captured on a serial run_session-equivalent drive.
std::vector<ProbeState> capture_probe_states(World& world,
                                             std::vector<util::Rng>& streams) {
  std::vector<ProbeState> states;
  for (std::size_t k = 0; k < world.size(); ++k) {
    sim::FleetLink& m = world.member(k);
    util::Rng& rng = streams[k];
    sim::SessionDriver driver(*m.environment, *m.link, *m.controller,
                              m.script);
    driver.start(rng);
    states.push_back(capture_state(m, rng));
    const auto frames = static_cast<std::int64_t>(m.script.duration_ms /
                                                  core::ControllerConfig{}.fat_ms);
    std::int64_t f = 0;
    while (!driver.done()) {
      core::DecisionRequest req = driver.observe(rng);
      const trace::Action verdict = m.controller->decide(req, rng);
      driver.apply(verdict, req, rng);
      ++f;
      if (frames >= 4 && (f == frames / 4 || f == frames / 2 ||
                          f == 3 * frames / 4)) {
        states.push_back(capture_state(m, rng));
      }
    }
  }
  return states;
}

void run_fleet_workload(const Args& args, FleetParams p, Report& report) {
  p.world.seed = args.seed;

  std::vector<SetupTimes> setups;
  FleetSetup setup = repeat_setup(
      [&p](SetupTimes& t) { return make_setup(p, t); }, setups);
  const FleetModel& model = *setup.model;

  // Timed phase: fresh world per repetition, identical inputs each time.
  // The reference speed is measured between repetitions; each repetition
  // is scaled by the mean of the measurements on either side of it.
  double ref_prev = reference_ops_per_cpu_s(kFleetThreads);
  const obs::MetricsSnapshot before = obs::Registry::global().snapshot();
  std::vector<RepStats> reps;
  std::vector<sim::SessionResult> fleet_results;
  std::int64_t unfinished = 0;
  std::int64_t digest_mismatch = 0;
  std::map<Impairment, std::size_t> kinds;
  const Clock::time_point phase_t0 = Clock::now();
  while (reps.size() < kMinReps ||
         (reps.size() < kMaxReps && seconds_since(phase_t0) < args.seconds)) {
    if (!reps.empty()) {
      setup.world.reset();
      const std::vector<std::size_t> all = iota_indices(p.links);
      setup.world = std::make_unique<World>(model, p.world, all);
      if (p.trainer) setup.trainer = make_trainer(model);
    }
    sim::FleetConfig cfg;
    cfg.seed = args.seed;
    cfg.num_threads = kFleetThreads;
    if (setup.trainer) {
      cfg.trainer = setup.trainer.get();
      cfg.backend = setup.trainer->backend();
    }
    const double cpu0 = process_cpu_s();
    const Clock::time_point t0 = Clock::now();
    sim::FleetResult res = sim::run_fleet(setup.world->members(), cfg);
    RepStats rep;
    rep.wall_s = seconds_since(t0);
    rep.cpu_s = cpu_seconds_since(cpu0);
    const double ref_next = reference_ops_per_cpu_s(kFleetThreads);
    rep.ref = 0.5 * (ref_prev + ref_next);
    ref_prev = ref_next;
    rep.tick_s = res.tick_latency_us.mean() *
                 static_cast<double>(res.tick_latency_us.count()) / 1e6;
    rep.ticks = res.ticks;
    rep.link_frames = res.link_frames;
    rep.rows = res.batched_rows;
    rep.digest = fleet_digest(res.links);
    for (std::size_t k = 0; k < setup.world->size(); ++k) {
      if (!setup.world->finished(k)) ++unfinished;
    }
    if (reps.empty()) {
      fleet_results = std::move(res.links);
      for (std::size_t k = 0; k < setup.world->size(); ++k) {
        ++kinds[setup.world->spec(k).kind];
      }
    } else if (rep.digest != reps.front().digest) {
      ++digest_mismatch;
    }
    reps.push_back(rep);
  }
  const obs::MetricsSnapshot delta =
      obs::Registry::global().snapshot().delta_since(before);
  const auto nreps = static_cast<double>(reps.size());

  // Traced sample, untraced replay and probe states, each on a fresh copy
  // of the sampled links with the streams run_fleet handed them.
  const std::vector<std::size_t> sample =
      sample_indices(args.seed, p.links, p.sample);
  core::LocalBackend local(&model.classifier.forest());
  core::DecisionBackend* inner =
      setup.trainer ? setup.trainer->backend() : &local;
  TracedSample traced;
  {
    World world(model, p.world, sample);
    std::vector<util::Rng> streams = fleet_streams(args.seed, sample);
    run_traced_sample(world, streams, inner, traced);
  }
  std::vector<sim::SessionResult> replayed(sample.size());
  double replay_wall_s = 0.0;
  double mean_paths = 0.0;
  {
    World world(model, p.world, sample);
    std::vector<util::Rng> streams = fleet_streams(args.seed, sample);
    for (std::size_t k = 0; k < world.size(); ++k) {
      mean_paths += static_cast<double>(world.member(k).link->paths().size());
    }
    mean_paths /= static_cast<double>(std::max<std::size_t>(world.size(), 1));
    const Clock::time_point t0 = Clock::now();
    for (std::size_t k = 0; k < world.size(); ++k) {
      const sim::FleetLink& m = world.member(k);
      replayed[k] = sim::run_session(*m.environment, *m.link, *m.controller,
                                     m.script, streams[k]);
    }
    replay_wall_s = seconds_since(t0);
  }
  std::vector<ProbeState> probe_states;
  {
    const std::vector<std::size_t> probe_idx(
        sample.begin(),
        sample.begin() + static_cast<std::ptrdiff_t>(
                             std::min(p.probe_links, sample.size())));
    World world(model, p.world, probe_idx);
    std::vector<util::Rng> streams = fleet_streams(args.seed, probe_idx);
    probe_states = capture_probe_states(world, streams);
  }
  const ProbeResults probes =
      run_probes(probe_states, model.error_model, *model.codebook);
  const double features_us = probe_features_us(model.dataset);

  // Output checks.
  std::string first;
  const std::int64_t traced_bad =
      count_mismatches(fleet_results, sample, traced.results, &first);
  if (traced_bad > 0) {
    report.fail("traced sample differs from run_fleet (" + first + ")",
                traced_bad);
  }
  const std::int64_t replay_bad =
      count_mismatches(fleet_results, sample, replayed, &first);
  if (replay_bad > 0) {
    report.fail("run_session replay differs from run_fleet (" + first + ")",
                replay_bad);
  }
  if (unfinished > 0) report.fail("links left their script unfinished", unfinished);
  if (digest_mismatch > 0) {
    report.fail("repetitions of one world disagree", digest_mismatch);
  }
  const std::uint64_t degraded =
      counter_of(delta, "controller.degraded_decisions");
  if (degraded > 0) {
    report.fail("degraded decisions in the timed runs",
                static_cast<std::int64_t>(degraded));
  }
  if (traced.degraded > 0) {
    report.fail("degraded decisions in the traced sample", traced.degraded);
  }
  report.attempted += static_cast<std::int64_t>(p.links * reps.size() +
                                                2 * sample.size());

  // End-to-end metrics: medians over the repetitions.
  std::vector<double> throughput, phase, latency, per_cpu, refs;
  std::int64_t frames = 0, rows = 0, ticks = 0;
  for (const RepStats& r : reps) {
    frames += r.link_frames;
    rows += r.rows;
    ticks += r.ticks;
    refs.push_back(r.ref);
    const auto links = static_cast<double>(p.links);
    const double units = p.association_phase ? links
                                             : static_cast<double>(r.link_frames);
    per_cpu.push_back(rate_at_reference_speed(units / r.cpu_s, r.ref));
    if (!p.association_phase) {
      throughput.push_back(static_cast<double>(r.link_frames) / r.wall_s);
      phase.push_back(static_cast<double>(r.link_frames) / r.tick_s);
      latency.push_back(r.tick_s * 1e6 / static_cast<double>(r.ticks));
    } else {
      const double assoc_s = r.wall_s - r.tick_s;
      throughput.push_back(links / r.wall_s);
      phase.push_back(links / assoc_s);
      latency.push_back(assoc_s * 1e6 * kFleetThreads / links);
    }
  }
  const SetupTimes st = median_setup(setups);
  report.e2e("setup_s", setup_seconds(setups), "s");
  report.e2e("work_per_cpu_s", median(per_cpu), "1/s");
  report.e2e("peak_rss_mb", peak_rss_mb(), "MB");
  report.layer("wall.setup_s", st.wall_s, "s");
  report.layer("wall.throughput_per_s", median(throughput), "1/s");
  report.layer("wall.phase_per_s", median(phase), "1/s");
  report.layer("wall.latency_us", median(latency), "us");
  report.layer("bench.reference_ops_per_cpu_s", median(refs), "1/s");

  // Per-layer metrics.
  const Ledger ledger = build_ledger(std::span(&traced.recorder, 1));
  auto per_call = [&](const char* name) {
    const std::int64_t c = ledger.calls(name);
    return c > 0 ? ledger.busy_us(name) / static_cast<double>(c) : 0.0;
  };
  report.layer("sim.assoc_us", per_call("sim.start"), "us");
  report.layer("sim.observe_us", per_call("sim.observe"), "us");
  report.layer("sim.apply_us", per_call("sim.apply"), "us");
  report.layer("sim.gather_busy_s", hist_sum(delta, "fleet.gather_us") / 1e6 / nreps, "s");
  report.layer("sim.decide_busy_s", hist_sum(delta, "fleet.decide_us") / 1e6 / nreps, "s");
  report.layer("sim.scatter_busy_s", hist_sum(delta, "fleet.scatter_us") / 1e6 / nreps, "s");
  report.layer("sim.ticks", static_cast<double>(counter_of(delta, "fleet.ticks")) / nreps, "count");
  report.layer("mac.sweep_us", probes.sweep_us, "us");
  report.layer("channel.snr_us", probes.snr_us, "us");
  report.layer("phy.measure_snr_us", probes.measure_snr_us, "us");
  report.layer("phy.observe_us", probes.observe_us, "us");
  report.layer("util.fft_us", probes.fft_us, "us");
  report.layer("channel.refresh_us", probes.refresh_us, "us");
  report.layer("env.trace_us", probes.trace_us, "us");
  report.layer("mac.ack_us", probes.ack_us, "us");
  report.layer("core.classify_us_per_row",
               traced.classified_rows > 0
                   ? ledger.self_us("core.classify_batch") /
                         static_cast<double>(traced.classified_rows)
                   : 0.0,
               "us");
  report.layer("ml.vote_us_per_row",
               traced.vote_rows > 0 ? ledger.busy_us("ml.vote_batch") /
                                          static_cast<double>(traced.vote_rows)
                                    : 0.0,
               "us");
  std::int64_t ba = 0, ra = 0, result_frames = 0;
  double goodput = 0.0;
  for (const sim::SessionResult& r : fleet_results) {
    result_frames += r.frames;
    ba += r.adaptations_ba;
    ra += r.adaptations_ra;
    goodput += r.avg_goodput_mbps;
  }
  const double kframes = static_cast<double>(result_frames) / 1000.0;
  const std::uint64_t decisions = counter_of(delta, "controller.verdict.ba") +
                                  counter_of(delta, "controller.verdict.ra") +
                                  counter_of(delta, "controller.verdict.na");
  report.layer("core.rows_per_frame",
               frames > 0 ? static_cast<double>(rows) / static_cast<double>(frames) : 0.0,
               "ratio");
  report.layer("core.ba_per_kframe", kframes > 0 ? static_cast<double>(ba) / kframes : 0.0, "count");
  report.layer("core.ra_per_kframe", kframes > 0 ? static_cast<double>(ra) / kframes : 0.0, "count");
  report.layer("core.degraded_frac",
               decisions > 0 ? static_cast<double>(degraded) / static_cast<double>(decisions) : 0.0,
               "ratio");
  const std::uint64_t trainer_sampled = counter_of(delta, "trainer.rows_sampled");
  const std::uint64_t trainer_dropped = counter_of(delta, "trainer.rows_dropped");
  report.layer("trainer.rows_sampled", static_cast<double>(trainer_sampled) / nreps, "count");
  report.layer("trainer.drop_frac",
               trainer_sampled > 0 ? static_cast<double>(trainer_dropped) /
                                         static_cast<double>(trainer_sampled)
                                   : 0.0,
               "ratio");
  report.layer("util.pool_wait_us_mean", hist_mean(delta, "threadpool.task_wait_us"), "us");
  report.layer("util.pool_run_us_mean", hist_mean(delta, "threadpool.task_run_us"), "us");
  report.layer("setup.collect_s", st.collect_s, "s");
  report.layer("setup.train_s", st.train_s, "s");
  report.layer("setup.world_s", st.world_s, "s");
  report.layer("setup.server_s", st.server_s, "s");
  report.layer("trace.features_us", features_us, "us");
  const double overhead = replay_wall_s > 0 ? traced.wall_s / replay_wall_s - 1.0 : 0.0;
  report.layer("bench.trace_overhead_frac", overhead, "ratio");
  report.layer("bench.span_coverage_frac", ledger.coverage(), "ratio");
  const double assoc_share =
      ledger.root_us > 0 ? ledger.busy_us("sim.start") / ledger.root_us : 0.0;
  report.layer("bench.assoc_share", assoc_share, "ratio");

  // Traffic properties and simulated statistics (printed, not gated).
  const auto n_links = static_cast<double>(p.links);
  std::string shares = "impairment share of links:";
  for (const auto& [kind, count] : kinds) {
    shares += fmt(" %s=%.4f (%zu/%zu)", impairment_name(kind),
                  static_cast<double>(count) / n_links, count, p.links);
  }
  report.note(shares);
  report.note(fmt("fleet: %zu links x %zu repetitions, %d threads, %d-beam "
                  "codebook, %.0f ms sessions, trainer %s",
                  p.links, reps.size(), kFleetThreads, p.world.num_beams,
                  p.world.duration_ms, p.trainer ? "attached" : "off"));
  std::string per_rep =
      fmt("per repetition, %s per wall-s / per CPU-s at reference speed "
          "(reference ops per CPU-s):",
          p.association_phase ? "links" : "link-frames");
  for (std::size_t r = 0; r < reps.size(); ++r) {
    per_rep += fmt(" %.1f/%.1f (%.0f)", throughput[r], per_cpu[r], refs[r]);
  }

  report.note(per_rep);
  report.note(setup_note(setups));
  report.note(fmt("rows per frame: %.6f (%lld rows / %lld link-frames)",
                  frames > 0 ? static_cast<double>(rows) / static_cast<double>(frames) : 0.0,
                  static_cast<long long>(rows), static_cast<long long>(frames)));
  report.note(fmt("mean traced paths per link: %.3f (over %zu sampled links)",
                  mean_paths, sample.size()));
  report.note(fmt("ticks per repetition: %.1f; link-frames per repetition: %.0f",
                  static_cast<double>(ticks) / nreps,
                  static_cast<double>(frames) / nreps));
  if (p.trainer) {
    report.note(fmt("trainer: %llu rows sampled, %llu dropped (drop frac %.4f)",
                    static_cast<unsigned long long>(trainer_sampled),
                    static_cast<unsigned long long>(trainer_dropped),
                    trainer_sampled > 0 ? static_cast<double>(trainer_dropped) /
                                              static_cast<double>(trainer_sampled)
                                        : 0.0));
  }
  report.note(fmt("degraded decisions: %llu of %llu decisions",
                  static_cast<unsigned long long>(degraded),
                  static_cast<unsigned long long>(decisions)));
  report.note(fmt("fleet digest: %016llx; mean goodput %.3f Mbps; BA %.3f / "
                  "RA %.3f per kframe (%lld BA, %lld RA, %.0f frames)",
                  static_cast<unsigned long long>(reps.front().digest),
                  goodput / n_links, kframes > 0 ? static_cast<double>(ba) / kframes : 0.0,
                  kframes > 0 ? static_cast<double>(ra) / kframes : 0.0,
                  static_cast<long long>(ba), static_cast<long long>(ra),
                  kframes * 1000.0));
  report.note(fmt("checks: %zu sampled links traced and replayed; %lld traced "
                  "and %lld replayed mismatches; %lld unfinished links; %lld "
                  "repetition digest mismatches",
                  sample.size(), static_cast<long long>(traced_bad),
                  static_cast<long long>(replay_bad),
                  static_cast<long long>(unfinished),
                  static_cast<long long>(digest_mismatch)));
  report.note(fmt("traced sample: wall %.4f s traced vs %.4f s untraced "
                  "(overhead %.4f); span coverage %.4f; association %.4f of "
                  "traced wall; %lld rows classified; %zu probe states",
                  traced.wall_s, replay_wall_s, overhead, ledger.coverage(),
                  assoc_share, static_cast<long long>(traced.classified_rows),
                  probes.states));

  if (args.trace) {
    report_ledger(ledger, std::span(&traced.recorder, 1), args, report);
  }
}

}  // namespace

void run_fleet_steady(const Args& args, Report& report) {
  FleetParams p;
  p.world.num_beams = 5;
  p.world.duration_ms = 300.0;
  p.world.impairments = true;
  p.links = 4096;
  p.trainer = true;
  p.sample = 48;
  p.probe_links = 6;
  run_fleet_workload(args, p, report);
}

void run_fleet_associate(const Args& args, Report& report) {
  FleetParams p;
  p.world.num_beams = 25;
  p.world.duration_ms = 10.0;  // one frame at the controller's 10 ms FAT
  p.world.impairments = false;
  p.links = 2048;
  p.association_phase = true;
  p.trainer = false;
  p.sample = 48;
  p.probe_links = 4;
  run_fleet_workload(args, p, report);
}

}  // namespace perfbench
