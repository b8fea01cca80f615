// Feature extraction (Sec. 6.1): the seven PHY-layer metrics LiBRA feeds to
// its classifiers, computed from the change between the initial-state trace
// and the impaired-state trace through the SAME (initial) beam pair -- i.e.
// what the transmitter can observe before adapting.
//
//   SNR difference       initial - current (dB); positive under impairment
//   ToF difference       initial - current (ns); negative = path got longer
//                        (backward motion / detour); +kTofInfinity sentinel
//                        when the current state's ToF is unmeasurable
//   Noise difference     current - initial (dB); rises under interference
//   PDP similarity       Pearson correlation of the two PDPs (time domain)
//   CSI similarity       Pearson correlation of the two |FFT(PDP)|
//   CDR                  codeword delivery ratio at the initial MCS, on the
//                        initial pair, at the current state
//   Initial MCS          the best MCS before the impairment
//
// The similarity metrics ride on util::pearson and the FFT behind
// magnitude_spectrum: one scalar path each, whose summation schedule and
// twiddle recurrence are pinned by the golden digest (sim/golden.h), so
// extracted features and everything downstream (forest votes, fleet
// digests) are the same on every host.
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "trace/collector.h"
#include "util/stats.h"

namespace libra::trace {

inline constexpr double kTofInfinity = 1000.0;  // sentinel (ns)

// Pearson similarity of two PDPs after aligning each to its strongest tap.
// X60 (like any receiver) time-synchronizes to the arriving signal, so the
// logged PDP is delay-aligned; comparing raw tap vectors would spuriously
// decorrelate a simple backward move (the whole profile shifts in time).
inline double aligned_pdp_similarity(const std::vector<double>& a,
                                     const std::vector<double>& b) {
  if (a.empty() || b.empty()) return 0.0;
  const auto peak_a = static_cast<std::size_t>(
      std::max_element(a.begin(), a.end()) - a.begin());
  const auto peak_b = static_cast<std::size_t>(
      std::max_element(b.begin(), b.end()) - b.begin());
  const std::size_t len =
      std::min(a.size() - peak_a, b.size() - peak_b);
  if (len < 2) return 0.0;
  return util::pearson(std::span(a).subspan(peak_a, len),
                       std::span(b).subspan(peak_b, len));
}

struct FeatureVector {
  static constexpr int kDim = 7;
  static constexpr std::array<std::string_view, kDim> kNames = {
      "SNR", "ToF", "NoiseLevel", "PDP", "CSI", "CDR", "InitialMCS"};

  std::array<double, kDim> v{};

  double snr_diff_db() const { return v[0]; }
  double tof_diff_ns() const { return v[1]; }
  double noise_diff_db() const { return v[2]; }
  double pdp_similarity() const { return v[3]; }
  double csi_similarity() const { return v[4]; }
  double cdr() const { return v[5]; }
  double initial_mcs() const { return v[6]; }
};

// The seven Sec. 6.1 formulas. `before` holds the initial state's PHY
// metrics and `now` the current state's, both through the initial beam
// pair; either is a PairTrace or a phy::PhyObservation (anything with
// snr_db, tof_ns, noise_dbm, pdp and csi). `cdr` is the current CDR at
// `initial_mcs`.
template <typename Before, typename Now>
FeatureVector feature_row(const Before& before, const Now& now, double cdr,
                          phy::McsIndex initial_mcs) {
  FeatureVector f;
  f.v[0] = before.snr_db - now.snr_db;
  if (before.tof_ns && now.tof_ns) {
    f.v[1] = *before.tof_ns - *now.tof_ns;
  } else {
    f.v[1] = kTofInfinity;
  }
  f.v[2] = now.noise_dbm - before.noise_dbm;
  f.v[3] = aligned_pdp_similarity(before.pdp, now.pdp);
  f.v[4] = util::pearson(before.csi, now.csi);
  f.v[5] = cdr;
  f.v[6] = static_cast<double>(initial_mcs);
  return f;
}

inline FeatureVector extract_features(const CaseRecord& rec) {
  // The CDR lookup below indexes with init_mcs; a hand-built or corrupted
  // record must fail loudly instead of reading out of bounds.
  const std::vector<double>& cdr = rec.new_at_init_pair.cdr;
  if (rec.init_mcs < 0 ||
      static_cast<std::size_t>(rec.init_mcs) >= cdr.size()) {
    throw std::invalid_argument(
        "extract_features: init_mcs " + std::to_string(rec.init_mcs) +
        " out of range for a CDR vector of " + std::to_string(cdr.size()) +
        " entries");
  }
  if (cdr.size() != rec.new_at_init_pair.throughput_mbps.size()) {
    throw std::invalid_argument(
        "extract_features: CDR vector has " + std::to_string(cdr.size()) +
        " entries but throughput has " +
        std::to_string(rec.new_at_init_pair.throughput_mbps.size()));
  }
  const FeatureVector f =
      feature_row(rec.init_best, rec.new_at_init_pair,
                  cdr[static_cast<std::size_t>(rec.init_mcs)], rec.init_mcs);
  // A NaN/Inf input metric (corrupted capture, poisoned observation) must
  // not propagate silently into training or inference; name the feature so
  // the bad field in the record is identifiable.
  for (int i = 0; i < FeatureVector::kDim; ++i) {
    if (!std::isfinite(f.v[static_cast<std::size_t>(i)])) {
      throw std::invalid_argument(
          "extract_features: non-finite " +
          std::string(FeatureVector::kNames[static_cast<std::size_t>(i)]) +
          " feature (check the source record's PHY metrics)");
    }
  }
  return f;
}

}  // namespace libra::trace
