// The repo benchmark's executable.
//
//   libra_perfbench --workload <fleet-steady|fleet-associate|daemon-serve>
//                   --seed <n> --seconds <s> --trace <0|1> [--out <dir>]
//   libra_perfbench --selftest
//
// Prints the run context, traffic properties, checks and every metric as
// readable lines, then one JSON object as the last line: the end-to-end
// metrics with --trace 0, the per-layer metrics with --trace 1.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "util/simd.h"
#include "workloads.h"

namespace perfbench {
namespace {

struct CatalogEntry {
  const char* name;
  const char* unit;
};

// Every workload prints every metric of both sets, in this order; a layer a
// workload never calls reads 0.
constexpr CatalogEntry kEndToEnd[] = {
    {"setup_s", "s"},
    {"work_per_cpu_s", "1/s"},
    {"peak_rss_mb", "MB"},
};

constexpr CatalogEntry kPerLayer[] = {
    {"wall.setup_s", "s"},
    {"wall.throughput_per_s", "1/s"},
    {"wall.phase_per_s", "1/s"},
    {"wall.latency_us", "us"},
    {"sim.assoc_us", "us"},
    {"sim.observe_us", "us"},
    {"sim.apply_us", "us"},
    {"sim.gather_busy_s", "s"},
    {"sim.decide_busy_s", "s"},
    {"sim.scatter_busy_s", "s"},
    {"sim.ticks", "count"},
    {"mac.sweep_us", "us"},
    {"channel.snr_us", "us"},
    {"phy.measure_snr_us", "us"},
    {"phy.observe_us", "us"},
    {"util.fft_us", "us"},
    {"channel.refresh_us", "us"},
    {"env.trace_us", "us"},
    {"mac.ack_us", "us"},
    {"core.classify_us_per_row", "us"},
    {"ml.vote_us_per_row", "us"},
    {"core.rows_per_frame", "ratio"},
    {"core.ba_per_kframe", "count"},
    {"core.ra_per_kframe", "count"},
    {"core.degraded_frac", "ratio"},
    {"trainer.rows_sampled", "count"},
    {"trainer.drop_frac", "ratio"},
    {"rpc.client_rtt_us_p50", "us"},
    {"rpc.client_rtt_us_p99", "us"},
    {"rpc.server_handle_us_mean", "us"},
    {"rpc.server_classify_us_mean", "us"},
    {"rpc.wire_us_mean", "us"},
    {"rpc.bytes_per_row", "B"},
    {"rpc.retries", "count"},
    {"rpc.swap_us_mean", "us"},
    {"rpc.push_us_p50", "us"},
    {"util.pool_wait_us_mean", "us"},
    {"util.pool_run_us_mean", "us"},
    {"setup.collect_s", "s"},
    {"setup.train_s", "s"},
    {"setup.world_s", "s"},
    {"setup.server_s", "s"},
    {"trace.features_us", "us"},
    {"bench.trace_overhead_frac", "ratio"},
    {"bench.span_coverage_frac", "ratio"},
    {"bench.assoc_share", "ratio"},
    {"bench.reference_ops_per_cpu_s", "1/s"},
};

// The reported metrics in catalog order. A metric a workload reports that
// the catalog lacks, or with another unit, is a benchmark bug.
template <std::size_t N>
std::vector<Metric> in_catalog(const CatalogEntry (&catalog)[N],
                               const std::vector<Metric>& reported) {
  for (const Metric& m : reported) {
    bool known = false;
    for (const CatalogEntry& e : catalog) {
      if (m.name == e.name && m.unit == e.unit) known = true;
    }
    if (!known) {
      throw std::logic_error("metric not in the catalog: " + m.name + " [" +
                             m.unit + "]");
    }
  }
  std::vector<Metric> out;
  for (const CatalogEntry& e : catalog) {
    Metric m{e.name, 0.0, e.unit};
    for (const Metric& r : reported) {
      if (r.name == e.name) m.value = r.value;
    }
    if (!std::isfinite(m.value)) {
      throw std::logic_error("non-finite metric: " + m.name);
    }
    out.push_back(m);
  }
  return out;
}

std::string json_line(const Report& report, const std::vector<Metric>& ms) {
  std::string out = fmt("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
                        "\"metrics\": {",
                        report.correct ? "true" : "false",
                        static_cast<long long>(report.attempted),
                        static_cast<long long>(report.failed));
  for (std::size_t i = 0; i < ms.size(); ++i) {
    out += fmt("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
               i ? ", " : "", ms[i].name.c_str(), ms[i].value,
               ms[i].unit.c_str());
  }
  return out + "}}";
}

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "libra_perfbench: %s\nusage: libra_perfbench --workload "
               "<fleet-steady|fleet-associate|daemon-serve> --seed <n> "
               "--seconds <s> --trace <0|1> [--out <dir>]\n"
               "       libra_perfbench --selftest\n",
               why.c_str());
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        a.workload = value;
        have_workload = true;
      } else if (flag == "--seed") {
        a.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        a.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        a.trace = value == "1";
      } else if (flag == "--out") {
        a.out_dir = value;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + value);
    }
  }
  if (!have_workload) usage("--workload is required");
  if (!(a.seconds > 0.0)) usage("--seconds must be > 0");
  return a;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
#if !defined(__OPTIMIZE__) || !defined(NDEBUG)
  std::fprintf(stderr,
               "libra_perfbench: refusing to report from an unoptimized or "
               "assert-enabled build (build type %s)\n",
               PERFBENCH_BUILD_TYPE);
  return 3;
#endif
  if (argc == 2 && std::string(argv[1]) == "--selftest") {
    const int missed = run_selftest();
    std::printf("selftest: %s\n", missed == 0 ? "every check caught its "
                                                "corruption"
                                              : "some checks missed");
    return missed == 0 ? 0 : 1;
  }
  const Args args = parse_args(argc, argv);
  void (*workload)(const Args&, Report&) = nullptr;
  if (args.workload == "fleet-steady") workload = run_fleet_steady;
  if (args.workload == "fleet-associate") workload = run_fleet_associate;
  if (args.workload == "daemon-serve") workload = run_daemon_serve;
  if (workload == nullptr) usage("unknown workload " + args.workload);

  Report report;
  try {
    workload(args, report);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "libra_perfbench: %s failed: %s\n",
                 args.workload.c_str(), e.what());
    return 1;
  }
  try {
    const std::vector<Metric> e2e = in_catalog(kEndToEnd, report.end_to_end);
    const std::vector<Metric> layers = in_catalog(kPerLayer, report.per_layer);
    std::printf("context: workload %s, seed %llu, seconds %g, trace %d, "
                "nproc %u, fleet threads %d, simd %s, build %s, NDEBUG on, "
                "compiler %s, obs %s\n",
                args.workload.c_str(),
                static_cast<unsigned long long>(args.seed), args.seconds,
                args.trace ? 1 : 0, std::thread::hardware_concurrency(),
                kFleetThreads, libra::util::simd::active_isa_name(),
                PERFBENCH_BUILD_TYPE, PERFBENCH_COMPILER,
                LIBRA_OBS_ENABLED && libra::obs::enabled() ? "enabled"
                                                           : "disabled");
    for (const std::string& line : report.notes) {
      std::printf("%s\n", line.c_str());
    }
    for (const Metric& m : e2e) {
      std::printf("end-to-end %-28s %.6g %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
    for (const Metric& m : layers) {
      std::printf("per-layer  %-28s %.6g %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
    std::printf("%s\n", json_line(report, args.trace ? layers : e2e).c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "libra_perfbench: %s\n", e.what());
    return 1;
  }
  return 0;
}
