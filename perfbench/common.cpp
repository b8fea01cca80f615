#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <random>
#include <thread>

#include "workloads.h"

namespace perfbench {

void Report::fail(const std::string& what, std::int64_t n) {
  correct = false;
  failed += n;
  notes.push_back(fmt("CHECK FAILED: %s (%lld)", what.c_str(),
                      static_cast<long long>(n)));
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

SetupTimes median_setup(const std::vector<SetupTimes>& runs) {
  auto field = [&](double SetupTimes::*f) {
    std::vector<double> v;
    for (const SetupTimes& t : runs) v.push_back(t.*f);
    return median(v);
  };
  SetupTimes m;
  m.collect_s = field(&SetupTimes::collect_s);
  m.train_s = field(&SetupTimes::train_s);
  m.world_s = field(&SetupTimes::world_s);
  m.server_s = field(&SetupTimes::server_s);
  m.wall_s = field(&SetupTimes::wall_s);
  return m;
}

double setup_seconds(const std::vector<SetupTimes>& times) {
  std::vector<double> v;
  for (const SetupTimes& t : times) {
    v.push_back(seconds_at_reference_speed(t.cpu_s(), t.ref));
  }
  return median(v);
}

std::string setup_note(const std::vector<SetupTimes>& times) {
  std::string out =
      "set-ups, CPU s collect/train/world/server (wall s, reference ops per "
      "CPU-s):";
  for (const SetupTimes& t : times) {
    out += fmt(" %.3f/%.3f/%.3f/%.4f (%.3f, %.0f)", t.collect_s, t.train_s,
               t.world_s, t.server_s, t.wall_s, t.ref);
  }
  return out;
}

double process_cpu_s() {
  timespec ts{};
  ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

namespace {

constexpr std::size_t kRefTable = std::size_t{1} << 15;  // 256 KB of doubles
constexpr int kRefOps = 400000;  // per thread per call, ~40 ms

// Keeps the reference kernel's result observable, so it is not optimized
// away.
volatile double g_reference_sink = 0.0;

double reference_kernel(std::uint64_t seed) {
  std::mt19937_64 g(seed);
  std::normal_distribution<double> normal(0.0, 1.0);
  std::vector<double> table(kRefTable, 1.0);
  double acc = 0.0;
  for (int i = 0; i < kRefOps; ++i) {
    const double x = normal(g);
    const std::size_t k = g() & (kRefTable - 1);
    table[k] += std::sin(x) * std::exp(-std::abs(x));
    acc += table[(k * 7919) & (kRefTable - 1)];
    if ((i & 63) == 0) {
      std::vector<double> small(16 + (k & 15), x);
      acc += small.back();
    }
  }
  return acc;
}

}  // namespace

double reference_ops_per_cpu_s(int threads) {
  std::vector<double> out(static_cast<std::size_t>(threads), 0.0);
  const double cpu0 = process_cpu_s();
  {
    std::vector<std::jthread> pool;
    for (int t = 0; t < threads; ++t) {
      pool.emplace_back([&out, t] {
        out[static_cast<std::size_t>(t)] =
            reference_kernel(static_cast<std::uint64_t>(t) + 1);
      });
    }
  }
  const double cpu = cpu_seconds_since(cpu0);
  for (const double v : out) g_reference_sink = g_reference_sink + v;
  return static_cast<double>(kRefOps) * threads / cpu;
}

double peak_rss_mb() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KB on Linux
}

std::string fmt(const char* format, ...) {
  va_list args;
  va_start(args, format);
  va_list copy;
  va_copy(copy, args);
  const int n = std::vsnprintf(nullptr, 0, format, copy);
  va_end(copy);
  std::string out(n > 0 ? static_cast<std::size_t>(n) : 0, '\0');
  if (n > 0) std::vsnprintf(out.data(), out.size() + 1, format, args);
  va_end(args);
  return out;
}

void Digest::add_bytes(const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h_ ^= p[i];
    h_ *= 0x100000001b3ULL;
  }
}

std::uint64_t counter_of(const obs::MetricsSnapshot& s, std::string_view name) {
  const auto* c = s.find_counter(name);
  return c ? c->value : 0;
}

double hist_sum(const obs::MetricsSnapshot& s, std::string_view name) {
  const auto* h = s.find_histogram(name);
  return h ? h->data.sum : 0.0;
}

double hist_mean(const obs::MetricsSnapshot& s, std::string_view name) {
  const auto* h = s.find_histogram(name);
  return h ? h->data.mean() : 0.0;
}

bool votes_match(const std::vector<std::vector<double>>& got,
                 const std::vector<std::vector<double>>& want) {
  if (got.size() != want.size()) return false;
  for (std::size_t r = 0; r < got.size(); ++r) {
    if (got[r].size() != want[r].size()) return false;
    if (!got[r].empty() &&
        std::memcmp(got[r].data(), want[r].data(),
                    got[r].size() * sizeof(double)) != 0) {
      return false;
    }
  }
  return true;
}

bool push_acked(const std::optional<rpc::AckMsg>& ack) {
  return ack.has_value() && ack->ok;
}

}  // namespace perfbench
