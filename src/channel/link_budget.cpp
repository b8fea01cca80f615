#include "channel/link_budget.h"

#include <algorithm>
#include <cmath>

namespace libra::channel {

namespace {
// Read at run time: GCC folds log10 of a constant with correctly rounded
// arithmetic, which lands one ulp above glibc's log10(60.48e9), and every
// path loss would move with it.
const volatile double g_carrier_frequency_hz = kCarrierFrequencyHz;
}  // namespace

double fspl_db(double distance_m, double frequency_hz) {
  const double d = std::max(distance_m, 0.1);  // near-field guard
  return 20.0 * std::log10(d) + 20.0 * std::log10(frequency_hz) +
         20.0 * std::log10(4.0 * M_PI / libra::util::kSpeedOfLightMps);
}

double path_loss_db(double distance_m) {
  return fspl_db(distance_m, g_carrier_frequency_hz) +
         kOxygenDbPerM * distance_m + kImplementationLossDb;
}

double thermal_noise_floor_dbm() {
  return -174.0 + 10.0 * std::log10(kBandwidthHz) + kNoiseFigureDb;
}

}  // namespace libra::channel
