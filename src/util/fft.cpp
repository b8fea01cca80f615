#include "util/fft.h"

#include <cmath>
#include <numbers>
#include <stdexcept>

namespace libra::util {

namespace {

// Every stage's twiddles for an n-point transform, stage after stage: the
// stage of length len holds len/2 entries starting at len/2 - 1 (the
// halves 1, 2, 4, ... sum to n - 1). Each stage is filled by the
// sequential tw[k] = tw[k-1] * wlen recurrence; those bits, not the exact
// roots of unity, are what the golden digest pins.
std::vector<std::complex<double>> build_twiddles(std::size_t n, bool inverse) {
  std::vector<std::complex<double>> tw;
  tw.reserve(n - 1);
  for (std::size_t len = 2; len <= n; len <<= 1) {
    const double angle =
        2.0 * std::numbers::pi / static_cast<double>(len) * (inverse ? 1 : -1);
    const std::complex<double> wlen(std::cos(angle), std::sin(angle));
    tw.push_back({1.0, 0.0});
    for (std::size_t k = 1; k < len / 2; ++k) tw.push_back(tw.back() * wlen);
  }
  return tw;
}

struct TwiddleTable {
  std::size_t n;
  bool inverse;
  std::vector<std::complex<double>> tw;
};

// The calling thread's table for (n, inverse), built on first use and kept
// for the thread's lifetime (16 * (n - 1) bytes). A thread transforms only
// a handful of sizes, so a linear scan finds it.
const std::complex<double>* cached_twiddles(std::size_t n, bool inverse) {
  thread_local std::vector<TwiddleTable> cache;
  for (const TwiddleTable& t : cache) {
    if (t.n == n && t.inverse == inverse) return t.tw.data();
  }
  cache.push_back({n, inverse, build_twiddles(n, inverse)});
  return cache.back().tw.data();
}

// One stage's butterfly over block [i, i+len): data[i+k] / data[i+k+len/2]
// combined through twiddle tw[k], the complex multiply written out as the
// naive formula std::complex uses (re = vr*wr - vi*wi, im = vr*wi + vi*wr).
inline void butterflies(std::complex<double>* data,
                        const std::complex<double>* tw, std::size_t half) {
  for (std::size_t k = 0; k < half; ++k) {
    const double ur = data[k].real();
    const double ui = data[k].imag();
    const double vr = data[k + half].real();
    const double vi = data[k + half].imag();
    const double wr = tw[k].real();
    const double wi = tw[k].imag();
    const double pr = vr * wr - vi * wi;
    const double pi = vr * wi + vi * wr;
    data[k] = {ur + pr, ui + pi};
    data[k + half] = {ur - pr, ui - pi};
  }
}

}  // namespace

std::size_t next_pow2(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

void fft(std::vector<std::complex<double>>& data, bool inverse) {
  const std::size_t n = data.size();
  if (n == 0) return;
  if ((n & (n - 1)) != 0) {
    throw std::invalid_argument("fft size must be a power of two");
  }
  // Bit reversal permutation.
  for (std::size_t i = 1, j = 0; i < n; ++i) {
    std::size_t bit = n >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    if (i < j) std::swap(data[i], data[j]);
  }
  const std::complex<double>* tw = cached_twiddles(n, inverse);
  for (std::size_t len = 2; len <= n; len <<= 1) {
    const std::size_t half = len / 2;
    const std::complex<double>* stage = tw + (half - 1);
    for (std::size_t i = 0; i < n; i += len) {
      butterflies(data.data() + i, stage, half);
    }
  }
  if (inverse) {
    for (auto& x : data) x /= static_cast<double>(n);
  }
}

std::vector<double> magnitude_spectrum(std::span<const double> signal) {
  if (signal.empty()) return {};
  const std::size_t n = next_pow2(signal.size());
  // Per-thread scratch: every PDP -> CSI conversion reuses one buffer.
  thread_local std::vector<std::complex<double>> buf;
  buf.assign(signal.begin(), signal.end());
  buf.resize(n);
  fft(buf);
  std::vector<double> mag(n / 2);
  // sqrt(re^2 + im^2), not std::abs: abs() takes the overflow-safe scaled
  // route whose bits differ from the plain formula, and PDP/CSI magnitudes
  // sit many orders below the overflow threshold.
  for (std::size_t i = 0; i < mag.size(); ++i) {
    const double re = buf[i].real();
    const double im = buf[i].imag();
    mag[i] = std::sqrt(re * re + im * im);
  }
  return mag;
}

}  // namespace libra::util
