// 60 GHz link-budget math: free-space path loss, atmospheric (oxygen)
// absorption, thermal noise floor over the 802.11ad channel bandwidth.
#pragma once

#include "util/units.h"

namespace libra::channel {

struct LinkBudgetConfig {
  double tx_power_dbm = 3.0;           // per-element PA power; with the
                                       // array gains this spans MCS 2-8
                                       // over the measured 2.5-30 m range
};

inline constexpr double kCarrierFrequencyHz = libra::util::k60GHzFrequencyHz;
// 802.11ad SC PHY occupied bandwidth.
inline constexpr double kBandwidthHz = 1.76e9;
inline constexpr double kNoiseFigureDb = 7.0;
// ~16 dB/km O2 absorption at 60 GHz.
inline constexpr double kOxygenDbPerM = 0.016;
inline constexpr double kImplementationLossDb = 3.0;

// Free-space path loss (dB) at distance d (m) and frequency f (Hz).
double fspl_db(double distance_m, double frequency_hz);

// FSPL at the carrier + oxygen absorption + implementation loss.
double path_loss_db(double distance_m);

// Thermal noise floor (dBm): -174 dBm/Hz + 10log10(B) + NF.
double thermal_noise_floor_dbm();

}  // namespace libra::channel
