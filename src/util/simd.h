// Kept for the repo benchmark's header line (perfbench/main.cpp prints
// `simd %s`). Every numeric kernel has one scalar path on every host, so
// the answer is fixed; delete this header once the benchmark stops asking.
#pragma once

namespace libra::util::simd {

inline const char* active_isa_name() { return "scalar"; }

}  // namespace libra::util::simd
