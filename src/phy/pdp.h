// Power delay profile synthesis and derived metrics (Sec. 6.1).
//
// X60 logs the PDP per frame; LiBRA derives from it:
//   - ToF: delay of the strongest tap (reported as "infinity" when the
//     signal is too weak, e.g. after a 90-degree rotation),
//   - CSI estimate: FFT of the PDP (time -> frequency domain),
//   - PDP / CSI similarity: Pearson correlation against a reference.
#pragma once

#include <optional>
#include <vector>

namespace libra::phy {

inline constexpr int kPdpTaps = 256;
// 2 GHz bandwidth -> sub-ns resolution; 1 ns keeps vectors small but
// preserves multipath structure (0.3 m resolution).
inline constexpr double kPdpTapSpacingNs = 1.0;

struct PdpConfig {
  double noise_floor_mw = 1e-12; // per-tap measurement floor
};

// Add one path's power (mW) to the tap its delay falls on; a delay outside
// the kPdpTaps window adds nothing.
void add_path_to_pdp(std::vector<double>& pdp, double delay_ns,
                     double power_mw);

// Delay (ns) of the strongest tap; nullopt when all taps are at the noise
// floor (the "ToF = infinity" case).
std::optional<double> time_of_flight_ns(const std::vector<double>& pdp,
                                        const PdpConfig& cfg = {});

// CSI estimate: magnitude spectrum of the PDP.
std::vector<double> csi_from_pdp(const std::vector<double>& pdp);

}  // namespace libra::phy
