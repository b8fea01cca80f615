// daemon-serve: an in-process loopback rpc::DecisionServer (unix socket,
// `libra serve`'s default worker count) driven by two closed-loop client
// connections. Each client
// waits for its reply before sending the next batch, as a fleet shard's
// decide does. Batches are real feature rows with seeded log-uniform
// sizes; one connection pushes a model every kPushEvery requests,
// alternating between two pre-trained forests A and B.
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <filesystem>
#include <limits>
#include <memory>
#include <thread>

#include "probes.h"
#include "rpc/client.h"
#include "rpc/server.h"
#include "spans.h"
#include "trace/features.h"
#include "workloads.h"
#include "world.h"

namespace perfbench {

namespace {

constexpr int kClients = 2;
// `libra serve`'s default. Each connection camps on one handler thread, and
// ServerConfig::num_workers = N runs N - 1 handler threads, so 2 would
// leave the second connection unserved.
constexpr int kServerWorkers = 4;
constexpr std::size_t kBatches = 96;
constexpr double kMinRows = 16.0;
constexpr double kMaxRows = 4096.0;
constexpr std::int64_t kPushEvery = 64;
constexpr int kReps = 16;
constexpr std::int64_t kTracedRequestsPerClient = 96;
// log2 buckets of the batch-size histogram: [16, 32) ... [2048, 4096].
constexpr int kSizeBuckets = 8;

struct Batch {
  ml::DataSet rows{trace::FeatureVector::kDim};
  std::vector<std::vector<double>> expect_a;
  std::vector<std::vector<double>> expect_b;
};

// Declaration order is teardown order in reverse: clients close before the
// server stops, and both go before the forests they serve.
struct ServeSetup {
  std::unique_ptr<FleetModel> model;  // dataset + forest A
  std::unique_ptr<core::LibraClassifier> classifier_b;
  std::vector<Batch> batches;
  std::unique_ptr<rpc::DecisionServer> server;
  std::vector<std::unique_ptr<rpc::DecisionClient>> clients;
};

std::string socket_path(const Args& args) {
  return args.out_dir + "/serve-" + std::to_string(::getpid()) + ".sock";
}

ServeSetup make_setup(const Args& args, SetupTimes& times) {
  ServeSetup s;
  s.model = std::make_unique<FleetModel>();
  collect_and_train(s.model->dataset, s.model->classifier,
                    s.model->error_model, times);
  double cpu0 = process_cpu_s();
  s.classifier_b = std::make_unique<core::LibraClassifier>();
  util::Rng rng_b(2);
  s.classifier_b->train(s.model->dataset, trace::GroundTruthConfig{}, rng_b);
  times.train_s += cpu_seconds_since(cpu0);

  // The request stream: real feature rows from the collected campaign,
  // drawn and jittered (observation-window noise) from the workload seed.
  cpu0 = process_cpu_s();
  std::vector<trace::FeatureVector> pool;
  for (const trace::LabeledEntry& e :
       s.model->dataset.labeled3(trace::GroundTruthConfig{})) {
    pool.push_back(e.x);
  }
  // Sizes are log-uniform, one per equal-width stratum of log(size), so
  // every seed serves the same size mix; the seed picks the sizes within
  // their strata, the rows and the order batches are sent in.
  util::Rng rng(mix64(args.seed ^ 0x5e7e));
  std::vector<std::size_t> sizes(kBatches);
  const double log_span = std::log(kMaxRows) - std::log(kMinRows);
  for (std::size_t i = 0; i < kBatches; ++i) {
    const double u = (static_cast<double>(i) + rng.uniform(0.0, 1.0)) /
                     static_cast<double>(kBatches);
    sizes[i] = static_cast<std::size_t>(
        std::lround(std::exp(std::log(kMinRows) + u * log_span)));
  }
  rng.shuffle(sizes);
  s.batches.resize(kBatches);
  for (std::size_t i = 0; i < kBatches; ++i) {
    Batch& b = s.batches[i];
    const std::size_t n = sizes[i];
    b.rows.reserve(n);
    for (std::size_t r = 0; r < n; ++r) {
      trace::FeatureVector f = pool[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<int>(pool.size()) - 1))];
      f.v[0] += rng.gaussian(0.0, 0.28);
      f.v[2] += rng.gaussian(0.0, 1.06);
      f.v[5] = std::clamp(f.v[5] + rng.gaussian(0.0, 0.011), 0.0, 1.0);
      b.rows.add(f.v, 0);
    }
    b.expect_a = s.model->classifier.forest().vote_fractions_batch(b.rows);
    b.expect_b = s.classifier_b->forest().vote_fractions_batch(b.rows);
  }
  times.world_s = cpu_seconds_since(cpu0);

  cpu0 = process_cpu_s();
  std::error_code ec;
  std::filesystem::create_directories(args.out_dir, ec);
  rpc::ServerConfig scfg;
  scfg.unix_socket = socket_path(args);
  scfg.num_workers = kServerWorkers;
  s.server = std::make_unique<rpc::DecisionServer>(scfg);
  s.server->set_forest(s.model->classifier.forest());
  s.server->start();
  for (int c = 0; c < kClients; ++c) {
    rpc::ClientConfig ccfg;
    ccfg.unix_socket = scfg.unix_socket;
    ccfg.deadline_ms = 10000.0;
    s.clients.push_back(std::make_unique<rpc::DecisionClient>(ccfg));
    s.clients.back()->connect();
  }
  times.server_s = cpu_seconds_since(cpu0);
  return s;
}

// One connection's position in the request stream, kept across phases.
struct ClientState {
  std::size_t next_batch = 0;
  std::int64_t sent = 0;  // classify requests so far (drives the pushes)
  bool push_b = true;     // the next push installs forest B
};

struct ClientTally {
  std::vector<double> rtt_us;
  std::vector<double> push_us;
  std::int64_t rows = 0;
  std::int64_t requests = 0;
  std::int64_t no_reply = 0;
  std::int64_t bad_reply = 0;
  std::int64_t pushes = 0;
  std::int64_t push_rejected = 0;
  std::array<std::int64_t, kSizeBuckets> sizes{};
  std::string error;  // an exception that ended the loop

  void merge(const ClientTally& o) {
    rtt_us.insert(rtt_us.end(), o.rtt_us.begin(), o.rtt_us.end());
    push_us.insert(push_us.end(), o.push_us.begin(), o.push_us.end());
    rows += o.rows;
    requests += o.requests;
    no_reply += o.no_reply;
    bad_reply += o.bad_reply;
    pushes += o.pushes;
    push_rejected += o.push_rejected;
    for (int b = 0; b < kSizeBuckets; ++b) sizes[b] += o.sizes[b];
    if (error.empty()) error = o.error;
  }
};

int size_bucket(std::size_t rows) {
  const int b = static_cast<int>(std::floor(std::log2(static_cast<double>(rows)))) - 4;
  return std::clamp(b, 0, kSizeBuckets - 1);
}

// Closed loop: send, wait for the reply, check it, repeat -- until the
// deadline or `max_requests`, whichever comes first.
void client_loop(rpc::DecisionClient& client, const ServeSetup& s,
                 bool pusher, ClientState& st, Clock::time_point deadline,
                 std::int64_t max_requests, SpanRecorder* rec,
                 ClientTally& t) {
  try {
    SpanRecorder::Scope root(rec, "bench.client");
    while (t.requests < max_requests && Clock::now() < deadline) {
      if (pusher && st.sent > 0 && st.sent % kPushEvery == 0) {
        const ml::RandomForest& forest = st.push_b
                                             ? s.classifier_b->forest()
                                             : s.model->classifier.forest();
        const Clock::time_point p0 = Clock::now();
        std::optional<rpc::AckMsg> ack;
        {
          SpanRecorder::Scope span(rec, "rpc.push_model");
          ack = client.push_model(forest);
        }
        t.push_us.push_back(us_between(p0, Clock::now()));
        ++t.pushes;
        if (!push_acked(ack)) ++t.push_rejected;
        st.push_b = !st.push_b;
      }
      const Batch& b = s.batches[st.next_batch];
      st.next_batch = (st.next_batch + 1) % s.batches.size();
      const Clock::time_point t0 = Clock::now();
      std::optional<std::vector<std::vector<double>>> votes;
      {
        SpanRecorder::Scope span(rec, "rpc.classify");
        votes = client.classify(b.rows);
      }
      t.rtt_us.push_back(us_between(t0, Clock::now()));
      ++st.sent;
      ++t.requests;
      t.rows += static_cast<std::int64_t>(b.rows.size());
      ++t.sizes[static_cast<std::size_t>(size_bucket(b.rows.size()))];
      if (!votes.has_value()) {
        ++t.no_reply;
      } else if (!votes_match(*votes, b.expect_a) &&
                 !votes_match(*votes, b.expect_b)) {
        ++t.bad_reply;
      }
    }
  } catch (const std::exception& e) {
    t.error = e.what();
  }
}

// Every client runs client_loop on its own thread; returns the merged
// tally and the phase's wall time.
ClientTally run_clients(ServeSetup& s, std::vector<ClientState>& states,
                        Clock::time_point deadline, std::int64_t max_requests,
                        std::vector<SpanRecorder>* recorders, double& wall_s) {
  std::vector<ClientTally> tallies(kClients);
  const Clock::time_point t0 = Clock::now();
  {
    std::vector<std::jthread> threads;
    for (int c = 0; c < kClients; ++c) {
      SpanRecorder* rec = recorders ? &(*recorders)[c] : nullptr;
      threads.emplace_back([&, c, rec] {
        client_loop(*s.clients[c], s, c == 0, states[c], deadline,
                    max_requests, rec, tallies[c]);
      });
    }
  }
  wall_s = seconds_since(t0);
  ClientTally all;
  for (const ClientTally& t : tallies) all.merge(t);
  return all;
}

void check_tally(const ClientTally& t, const char* phase, Report& report) {
  report.attempted += t.requests + t.pushes;
  if (t.no_reply > 0) report.fail(fmt("%s: requests without a reply", phase), t.no_reply);
  if (t.bad_reply > 0) {
    report.fail(fmt("%s: replies matching neither forest A nor B", phase),
                t.bad_reply);
  }
  if (t.push_rejected > 0) {
    report.fail(fmt("%s: model pushes not acked", phase), t.push_rejected);
  }
  if (!t.error.empty()) report.fail(fmt("%s: client error: %s", phase, t.error.c_str()));
}

}  // namespace

void run_daemon_serve(const Args& args, Report& report) {
  std::vector<SetupTimes> setups;
  ServeSetup setup = repeat_setup(
      [&args](SetupTimes& t) { return make_setup(args, t); }, setups);

  // Timed phase: kReps equal slices of --seconds; the second client starts
  // half-way through the request stream. The reference speed (one thread
  // per client) is measured between slices; each slice is scaled by the
  // mean of the measurements on either side of it.
  std::vector<ClientState> states(kClients);
  states[1].next_batch = kBatches / 2;
  const obs::MetricsSnapshot before = obs::Registry::global().snapshot();
  std::vector<double> rows_per_s, requests_per_s, rows_per_cpu_s, refs;
  ClientTally timed;
  double ref_prev = reference_ops_per_cpu_s(kClients);
  const double slice_s = args.seconds / kReps;
  for (int r = 0; r < kReps; ++r) {
    const Clock::time_point deadline =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(slice_s));
    double wall_s = 0.0;
    const double cpu0 = process_cpu_s();
    const ClientTally t =
        run_clients(setup, states, deadline,
                    std::numeric_limits<std::int64_t>::max(), nullptr, wall_s);
    const double cpu_s = cpu_seconds_since(cpu0);
    const double ref_next = reference_ops_per_cpu_s(kClients);
    refs.push_back(0.5 * (ref_prev + ref_next));
    ref_prev = ref_next;
    rows_per_s.push_back(static_cast<double>(t.rows) / wall_s);
    rows_per_cpu_s.push_back(
        rate_at_reference_speed(static_cast<double>(t.rows) / cpu_s, refs.back()));
    requests_per_s.push_back(static_cast<double>(t.requests) / wall_s);
    timed.merge(t);
  }
  const obs::MetricsSnapshot delta =
      obs::Registry::global().snapshot().delta_since(before);
  check_tally(timed, "timed", report);

  // Traced sample: the same requests untraced, then traced.
  const std::vector<ClientState> sample_start = states;
  const Clock::time_point no_deadline = Clock::time_point::max();
  double untraced_wall_s = 0.0;
  const ClientTally untraced = run_clients(setup, states, no_deadline,
                                           kTracedRequestsPerClient, nullptr,
                                           untraced_wall_s);
  check_tally(untraced, "untraced sample", report);
  states = sample_start;
  std::vector<SpanRecorder> recorders;
  for (int c = 0; c < kClients; ++c) recorders.emplace_back(c);
  double traced_wall_s = 0.0;
  const ClientTally traced = run_clients(setup, states, no_deadline,
                                         kTracedRequestsPerClient, &recorders,
                                         traced_wall_s);
  check_tally(traced, "traced sample", report);
  const double features_us = probe_features_us(setup.model->dataset);
  { ServeSetup old = std::move(setup); }

  const SetupTimes st = median_setup(setups);
  const double rtt_p50 = quantile(timed.rtt_us, 0.5);
  const double rtt_p99 = quantile(timed.rtt_us, 0.99);
  report.e2e("setup_s", setup_seconds(setups), "s");
  report.e2e("work_per_cpu_s", median(rows_per_cpu_s), "1/s");
  report.e2e("peak_rss_mb", peak_rss_mb(), "MB");
  report.layer("wall.setup_s", st.wall_s, "s");
  report.layer("wall.throughput_per_s", median(rows_per_s), "1/s");
  report.layer("wall.phase_per_s", median(requests_per_s), "1/s");
  report.layer("wall.latency_us", rtt_p50, "us");
  report.layer("bench.reference_ops_per_cpu_s", median(refs), "1/s");

  const Ledger ledger = build_ledger(recorders);
  const double handle_mean = hist_mean(delta, "rpc.server.handle_us");
  double rtt_mean = 0.0;
  for (const double v : timed.rtt_us) rtt_mean += v;
  rtt_mean /= static_cast<double>(std::max<std::size_t>(timed.rtt_us.size(), 1));
  const std::uint64_t client_rows = counter_of(delta, "rpc.client.rows");
  const std::uint64_t bytes = counter_of(delta, "rpc.client.bytes_tx") +
                              counter_of(delta, "rpc.client.bytes_rx");
  const std::uint64_t server_rows = counter_of(delta, "rpc.server.rows");
  const double classify_sum = hist_sum(delta, "rpc.server.classify_us");
  report.layer("ml.vote_us_per_row",
               server_rows > 0 ? classify_sum / static_cast<double>(server_rows) : 0.0,
               "us");
  report.layer("rpc.client_rtt_us_p50", rtt_p50, "us");
  report.layer("rpc.client_rtt_us_p99", rtt_p99, "us");
  report.layer("rpc.server_handle_us_mean", handle_mean, "us");
  report.layer("rpc.server_classify_us_mean",
               hist_mean(delta, "rpc.server.classify_us"), "us");
  report.layer("rpc.wire_us_mean", rtt_mean - handle_mean, "us");
  report.layer("rpc.bytes_per_row",
               client_rows > 0 ? static_cast<double>(bytes) / static_cast<double>(client_rows) : 0.0,
               "B");
  report.layer("rpc.retries", static_cast<double>(counter_of(delta, "rpc.client.retries")), "count");
  report.layer("rpc.swap_us_mean", hist_mean(delta, "rpc.server.swap_us"), "us");
  report.layer("rpc.push_us_p50", quantile(timed.push_us, 0.5), "us");
  report.layer("util.pool_wait_us_mean", hist_mean(delta, "threadpool.task_wait_us"), "us");
  report.layer("util.pool_run_us_mean", hist_mean(delta, "threadpool.task_run_us"), "us");
  report.layer("setup.collect_s", st.collect_s, "s");
  report.layer("setup.train_s", st.train_s, "s");
  report.layer("setup.world_s", st.world_s, "s");
  report.layer("setup.server_s", st.server_s, "s");
  report.layer("trace.features_us", features_us, "us");
  const double overhead =
      untraced_wall_s > 0 ? traced_wall_s / untraced_wall_s - 1.0 : 0.0;
  report.layer("bench.trace_overhead_frac", overhead, "ratio");
  report.layer("bench.span_coverage_frac", ledger.coverage(), "ratio");

  report.note(fmt("daemon: unix socket, %d workers; %d closed-loop clients; "
                  "%zu batches of %g-%g rows (log-uniform); a push every %lld "
                  "requests on client 0, alternating forests B and A",
                  kServerWorkers, kClients, kBatches, kMinRows, kMaxRows,
                  static_cast<long long>(kPushEvery)));
  report.note(fmt("requests: %lld (%lld rows) in %d slices; latency over %zu "
                  "round trips: p50 %.3f us, p99 %.3f us (%zu beyond p99)",
                  static_cast<long long>(timed.requests),
                  static_cast<long long>(timed.rows), kReps,
                  timed.rtt_us.size(), rtt_p50, rtt_p99,
                  timed.rtt_us.size() / 100));
  std::string per_slice =
      "per slice, rows per wall-s / per CPU-s at reference speed (reference "
      "ops per CPU-s):";
  for (std::size_t r = 0; r < rows_per_s.size(); ++r) {
    per_slice += fmt(" %.0f/%.0f (%.0f)", rows_per_s[r], rows_per_cpu_s[r],
                     refs[r]);
  }
  report.note(per_slice);
  report.note(setup_note(setups));
  report.note(fmt("pushes: %lld (%lld rejected); push round trip p50 %.1f us "
                  "over %zu pushes",
                  static_cast<long long>(timed.pushes),
                  static_cast<long long>(timed.push_rejected),
                  quantile(timed.push_us, 0.5), timed.push_us.size()));
  std::string hist = "batch-size histogram (requests sent):";
  for (int b = 0; b < kSizeBuckets; ++b) {
    hist += fmt(" [%d,%d)=%lld", 16 << b, 32 << b,
                static_cast<long long>(timed.sizes[static_cast<std::size_t>(b)]));
  }
  report.note(hist);
  report.note(fmt("bytes per row: %.2f (%llu bytes / %llu rows); server vote "
                  "us per row %.4f (%.1f us / %llu rows)",
                  client_rows > 0 ? static_cast<double>(bytes) / static_cast<double>(client_rows) : 0.0,
                  static_cast<unsigned long long>(bytes),
                  static_cast<unsigned long long>(client_rows),
                  server_rows > 0 ? classify_sum / static_cast<double>(server_rows) : 0.0,
                  classify_sum, static_cast<unsigned long long>(server_rows)));
  report.note(fmt("checks: %lld replies compared bit for bit with forests A/B "
                  "(%lld without a reply, %lld wrong); %lld pushes (%lld not "
                  "acked)",
                  static_cast<long long>(timed.requests + untraced.requests +
                                         traced.requests),
                  static_cast<long long>(timed.no_reply + untraced.no_reply +
                                         traced.no_reply),
                  static_cast<long long>(timed.bad_reply + untraced.bad_reply +
                                         traced.bad_reply),
                  static_cast<long long>(timed.pushes + untraced.pushes +
                                         traced.pushes),
                  static_cast<long long>(timed.push_rejected +
                                         untraced.push_rejected +
                                         traced.push_rejected)));
  report.note(fmt("traced sample: %lld requests per client, wall %.4f s "
                  "traced vs %.4f s untraced (overhead %.4f); span coverage "
                  "%.4f",
                  static_cast<long long>(kTracedRequestsPerClient),
                  traced_wall_s, untraced_wall_s, overhead, ledger.coverage()));

  if (args.trace) report_ledger(ledger, recorders, args, report);
}

}  // namespace perfbench
