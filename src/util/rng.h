// Seeded random number generation for reproducible simulation.
//
// Every stochastic component in the library draws from an explicitly seeded
// Rng so that experiments are bit-reproducible across runs. Sub-streams can
// be forked deterministically so that adding randomness to one module does
// not perturb another (counter-based fork seeding).
//
// Draw portability: the standard fixes mt19937_64's output sequence, but the
// std::*_distribution algorithms are implementation-defined, so draws made
// through them are reproducible only on one standard library. KeyedNormals
// below is the portable alternative: a splitmix64 counter stream with a
// written-down Box-Muller, keyed by one raw engine output.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numbers>
#include <random>
#include <vector>

namespace libra::util {

// splitmix64: golden-gamma increment, then the finalizer. splitmix64(k + i *
// gamma) for i = 0, 1, ... is the splitmix64 sequence seeded with k.
inline std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// Standard normal variates from a keyed splitmix64 counter stream, by
// Box-Muller using both variates of each pair. The sequence is a pure
// function of the key and this code (plus libm's log/sqrt/cos/sin), never of
// <random>.
class KeyedNormals {
 public:
  explicit KeyedNormals(std::uint64_t key) : state_(key) {}

  double next() {
    if (has_spare_) {
      has_spare_ = false;
      return spare_;
    }
    // 53-bit uniforms; u1 lies in (0, 1] so log never sees 0.
    const double u1 = static_cast<double>((bits() >> 11) + 1) * 0x1.0p-53;
    const double u2 = static_cast<double>(bits() >> 11) * 0x1.0p-53;
    const double r = std::sqrt(-2.0 * std::log(u1));
    const double theta = 2.0 * std::numbers::pi * u2;
    spare_ = r * std::sin(theta);
    has_spare_ = true;
    return r * std::cos(theta);
  }

 private:
  std::uint64_t bits() {
    const std::uint64_t out = splitmix64(state_);
    state_ += 0x9e3779b97f4a7c15ULL;
    return out;
  }

  std::uint64_t state_;
  double spare_ = 0.0;
  bool has_spare_ = false;
};

class Rng {
 public:
  explicit Rng(std::uint64_t seed) : engine_(seed), seed_(seed) {}

  // Deterministically derive an independent sub-stream. Successive calls
  // yield distinct streams; the parent stream is not advanced.
  Rng fork() { return Rng(seed_ ^ (0x9e3779b97f4a7c15ULL * ++fork_count_)); }

  std::uint64_t seed() const { return seed_; }

  // One raw engine output: the same value on every standard library.
  std::uint64_t raw() { return engine_(); }

  double uniform(double lo, double hi) {
    return std::uniform_real_distribution<double>(lo, hi)(engine_);
  }
  double gaussian(double mean, double stddev) {
    return std::normal_distribution<double>(mean, stddev)(engine_);
  }
  // Uniform integer in [lo, hi] inclusive.
  int uniform_int(int lo, int hi) {
    return std::uniform_int_distribution<int>(lo, hi)(engine_);
  }
  bool bernoulli(double p) {
    return std::bernoulli_distribution(p)(engine_);
  }
  // Exponentially distributed with the given mean (> 0).
  double exponential(double mean) {
    return std::exponential_distribution<double>(1.0 / mean)(engine_);
  }

  template <typename T>
  void shuffle(std::vector<T>& v) {
    std::shuffle(v.begin(), v.end(), engine_);
  }

  std::mt19937_64& engine() { return engine_; }

 private:
  std::mt19937_64 engine_;
  std::uint64_t seed_;
  std::uint64_t fork_count_ = 0;
};

}  // namespace libra::util
