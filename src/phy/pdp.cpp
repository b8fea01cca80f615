#include "phy/pdp.h"

#include <algorithm>
#include <cmath>

#include "util/fft.h"

namespace libra::phy {

void add_path_to_pdp(std::vector<double>& pdp, double delay_ns,
                     double power_mw) {
  const int tap = static_cast<int>(std::round(delay_ns / kPdpTapSpacingNs));
  if (tap < 0 || tap >= kPdpTaps) return;
  pdp[static_cast<std::size_t>(tap)] += power_mw;
}

std::optional<double> time_of_flight_ns(const std::vector<double>& pdp,
                                        const PdpConfig& cfg) {
  if (pdp.empty()) return std::nullopt;
  const auto it = std::max_element(pdp.begin(), pdp.end());
  // A tap must rise meaningfully above the measurement floor to be a
  // detectable first arrival; X60 reports infinity otherwise (Sec. 6.1.1).
  if (*it < cfg.noise_floor_mw * 10.0) return std::nullopt;
  return static_cast<double>(it - pdp.begin()) * kPdpTapSpacingNs;
}

std::vector<double> csi_from_pdp(const std::vector<double>& pdp) {
  return libra::util::magnitude_spectrum(pdp);
}

}  // namespace libra::phy
