// Shared plumbing for the repo benchmark: arguments, the metric report,
// small statistics helpers and the wall clock.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <type_traits>
#include <vector>

namespace libra {}

namespace perfbench {

// The library's layer namespaces (sim, core, rpc, ...) by their short names.
using namespace libra;

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}
inline double us_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

// CPU time consumed by every thread of this process so far, in seconds.
// Unlike wall time it excludes time the host stole from the VM's vCPUs.
double process_cpu_s();
inline double cpu_seconds_since(double cpu0) { return process_cpu_s() - cpu0; }

// Speed of this machine right now: reference operations per CPU-second of
// a fixed, benchmark-owned kernel (random draws, transcendental math,
// scattered reads and writes over an L2-sized table, small allocations)
// run on `threads` threads at once. None of it is library code, so no
// change to the program moves it.
//
// The VM's effective CPU speed drifts by tens of percent over minutes (host
// contention on shared cores), and CPU time drifts with it. The gated
// metrics are therefore scaled to a fixed reference speed, measured right
// before and right after the work they time.
double reference_ops_per_cpu_s(int threads);
inline constexpr double kReferenceOpsPerCpuS = 1e7;
// Rescale a CPU-time quantity measured while the reference ran at `ref`
// ops per CPU-second to what it would read at kReferenceOpsPerCpuS.
inline double rate_at_reference_speed(double per_cpu_s, double ref) {
  return per_cpu_s * kReferenceOpsPerCpuS / ref;
}
inline double seconds_at_reference_speed(double cpu_s, double ref) {
  return cpu_s * ref / kReferenceOpsPerCpuS;
}

// Fleet worker threads for every fleet workload.
inline constexpr int kFleetThreads = 4;
// Set-ups per run: setup_s is their median.
inline constexpr int kSetupRepeats = 7;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  // Directory (relative to the working directory) for the per-layer table
  // and the Chrome trace of a traced run.
  std::string out_dir = ".bench_build/out";
};

// One named metric with its unit, in insertion order.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// Everything one run reports. `end_to_end` and `per_layer` become the
// final JSON line (which set depends on --trace); `notes` are the
// human-readable lines printed above it.
struct Report {
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  bool correct = true;
  std::vector<std::string> notes;

  void e2e(const std::string& name, double value, const std::string& unit) {
    end_to_end.push_back({name, value, unit});
  }
  void layer(const std::string& name, double value, const std::string& unit) {
    per_layer.push_back({name, value, unit});
  }
  void note(const std::string& line) { notes.push_back(line); }
  // A failed output check: the run is not correct and counts one failure.
  void fail(const std::string& what, std::int64_t n = 1);
};

// The cost of one set-up: process CPU seconds per step, and the wall
// time of the whole set-up.
struct SetupTimes {
  double collect_s = 0.0;
  double train_s = 0.0;
  double world_s = 0.0;
  double server_s = 0.0;
  double wall_s = 0.0;
  double ref = 0.0;  // one-thread reference speed around the set-up
  double cpu_s() const { return collect_s + train_s + world_s + server_s; }
};

// Builds a set-up kSetupRepeats times with make(SetupTimes&) and returns
// the last one; each earlier one is torn down (in member order) before the
// next is built, so peak memory holds one set-up. Appends every set-up's
// times, wall time and surrounding reference speed to `times`.
template <typename Make>
auto repeat_setup(Make make, std::vector<SetupTimes>& times) {
  std::invoke_result_t<Make&, SetupTimes&> setup;
  times.clear();
  double ref = reference_ops_per_cpu_s(1);
  for (int r = 0; r < kSetupRepeats; ++r) {
    { auto old = std::move(setup); }
    SetupTimes t;
    const Clock::time_point t0 = Clock::now();
    setup = make(t);
    t.wall_s = seconds_since(t0);
    const double ref_after = reference_ops_per_cpu_s(1);
    t.ref = 0.5 * (ref + ref_after);
    ref = ref_after;
    times.push_back(t);
  }
  return setup;
}
// setup_s: the median set-up's CPU seconds at the reference speed.
double setup_seconds(const std::vector<SetupTimes>& times);
// One readable line with every set-up's split.
std::string setup_note(const std::vector<SetupTimes>& times);

double median(std::vector<double> v);
// Linear-interpolated quantile, q in [0, 1]; 0 for an empty sample.
double quantile(std::vector<double> v, double q);
// Median of each field over several set-ups.
SetupTimes median_setup(const std::vector<SetupTimes>& runs);

// Peak resident set of this process so far, in MB.
double peak_rss_mb();

// printf-style formatting into a std::string.
std::string fmt(const char* format, ...) __attribute__((format(printf, 1, 2)));

// splitmix64 finalizer: the benchmark's stateless per-index seeding.
inline std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// Order-sensitive 64-bit digest over raw bytes (FNV-1a).
class Digest {
 public:
  void add_bytes(const void* data, std::size_t n);
  template <typename T>
  void add(const T& v) {
    add_bytes(&v, sizeof(v));
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

}  // namespace perfbench
