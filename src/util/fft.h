// Radix-2 FFT used to convert power delay profiles (time domain) into a CSI
// estimate (frequency domain), mirroring Sec. 6.1's "FFT PDP Similarity".
//
// One scalar path on every host. Each thread builds the per-stage twiddle
// tables of an (n, direction) once and reuses them; the tables are filled
// by the same sequential w *= wlen recurrence a per-call build runs, so
// caching changes no bit of the output. That recurrence and the butterfly
// formula are part of the golden-digest contract (sim/golden.h).
#pragma once

#include <complex>
#include <span>
#include <vector>

namespace libra::util {

// In-place iterative radix-2 Cooley-Tukey. Size must be a power of two.
void fft(std::vector<std::complex<double>>& data, bool inverse = false);

// Magnitude spectrum of a real-valued signal, zero-padded to the next power
// of two. Returns the first half (the second half is symmetric).
std::vector<double> magnitude_spectrum(std::span<const double> signal);

std::size_t next_pow2(std::size_t n);

}  // namespace libra::util
