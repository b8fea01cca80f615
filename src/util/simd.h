// Runtime SIMD dispatch for the serving hot paths.
//
// The repo's vectorized kernels (util/fft.cpp for the FFT, util/stats.cpp
// for Pearson and the CDF) all pick their implementation through
// active_isa():
//
//   kScalar   the portable reference path. Always compiled, always
//             correct, and -- by construction -- bit-identical to the
//             vector paths (see "bit-parity discipline" below). Every
//             non-x86-64 host (aarch64 included) runs it.
//   kAvx2     AVX2 kernels, selected on x86-64 when the CPU reports AVX2
//             and the build compiled the kernels in.
//
// Selection order (first match wins):
//   1. -DLIBRA_SIMD=OFF at configure time -> kScalar (kernels not built).
//   2. LIBRA_FORCE_SCALAR env truthy ("1", "true", "yes", "on") at process
//      start -> kScalar. CI's release job runs the same fleet digest with
//      and without this knob and fails on any mismatch, so the scalar
//      fallback can never silently rot.
//   3. ScopedForceScalar active (tests) -> kScalar.
//   4. CPU capability: AVX2 on x86-64, else kScalar.
//
// Bit-parity discipline: every dispatched kernel must produce results
// bit-identical to its scalar reference. Compare-only kernels (the CDF
// binary search) get this for free. Floating-point kernels get it by fixing
// the summation schedule: the scalar reference is written in the same
// blocked/lane form the vector code uses (same per-lane accumulation, same
// horizontal combine order, same elementwise formulas, no FMA -- neither
// baseline x86-64 nor target("avx2") can contract mul+add). Anything that
// cannot honor this contract must not dispatch.
#pragma once

// LIBRA_SIMD_X86 gates the kernel *definitions*; callers additionally
// consult active_isa() at runtime. LIBRA_SIMD_ENABLED comes from CMake
// (option LIBRA_SIMD + compiler capability check).
#if defined(LIBRA_SIMD_ENABLED) && defined(__x86_64__) && \
    (defined(__GNUC__) || defined(__clang__))
#define LIBRA_SIMD_X86 1
#else
#define LIBRA_SIMD_X86 0
#endif

namespace libra::util::simd {

enum class Isa { kScalar, kAvx2 };

// The ISA the dispatched kernels will use right now. Cheap (one atomic
// load past the first call); safe to consult per batch.
Isa active_isa();

const char* isa_name(Isa isa);
// Shorthand for isa_name(active_isa()) -- what benches print as the
// dispatch label and tools log next to digests.
const char* active_isa_name();

// True when the LIBRA_FORCE_SCALAR environment knob pinned dispatch to
// scalar at process start.
bool force_scalar_env();

// Test-only: pin dispatch to kScalar for the lifetime of the object
// (nestable, not thread-safe -- tests flip it around single-threaded
// parity checks).
class ScopedForceScalar {
 public:
  ScopedForceScalar();
  ~ScopedForceScalar();
  ScopedForceScalar(const ScopedForceScalar&) = delete;
  ScopedForceScalar& operator=(const ScopedForceScalar&) = delete;
};

}  // namespace libra::util::simd
