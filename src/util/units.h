// Small strongly-typed helpers for the physical units used throughout the
// library: decibels, milliwatts, seconds/milliseconds, bits and bytes.
//
// The simulation mixes link-budget math (dB domain) with throughput
// accounting (linear domain); keeping the conversions in one place avoids
// the classic factor-of-10 bugs.
#pragma once

#include <cmath>
#include <numbers>

namespace libra::util {

// 10^(db/10) as exp(db * ln(10)/10): exp costs about half of pow, and the
// result stays within 2e-14 (relative) of pow(10, db/10) over -200..+60 dB
// (util_test bounds the error and pins the bits).
inline double db_to_linear(double db) {
  return std::exp(db * (std::numbers::ln10 / 10.0));
}
inline double linear_to_db(double linear) { return 10.0 * std::log10(linear); }

inline double dbm_to_mw(double dbm) { return db_to_linear(dbm); }
inline double mw_to_dbm(double mw) { return linear_to_db(mw); }

// Sum two powers expressed in dBm (linear-domain addition).
inline double dbm_add(double a_dbm, double b_dbm) {
  return mw_to_dbm(dbm_to_mw(a_dbm) + dbm_to_mw(b_dbm));
}

constexpr double kSpeedOfLightMps = 299792458.0;
constexpr double k60GHzFrequencyHz = 60.48e9;  // 802.11ad channel 2 center.

inline double wavelength_m(double freq_hz = k60GHzFrequencyHz) {
  return kSpeedOfLightMps / freq_hz;
}

constexpr double kMsPerSecond = 1e3;
constexpr double kUsPerSecond = 1e6;
constexpr double kNsPerSecond = 1e9;

inline double mbps_to_bytes_per_ms(double mbps) {
  // 1 Mbps = 1e6 bits/s = 125000 bytes/s = 125 bytes/ms.
  return mbps * 125.0;
}

}  // namespace libra::util
