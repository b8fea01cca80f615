#include "mac/beacon_interval.h"

#include <cmath>
#include <stdexcept>

namespace libra::mac {

int sectors_for_beamwidth(double coverage_deg, double beamwidth_deg) {
  if (beamwidth_deg <= 0.0 || coverage_deg <= 0.0) {
    throw std::invalid_argument("beamwidth/coverage must be positive");
  }
  return static_cast<int>(std::ceil(coverage_deg / beamwidth_deg));
}

double sls_duration_ms(int sectors, const SswTiming& timing) {
  if (sectors < 1) throw std::invalid_argument("sectors < 1");
  const double sweep_us =
      sectors * timing.ssw_frame_us + (sectors - 1) * timing.sbifs_us;
  return (sweep_us + timing.mbifs_us + timing.feedback_us) / 1000.0;
}

double full_sls_duration_ms(int tx_sectors, int rx_sectors,
                            const SswTiming& timing) {
  // Initiator sweep, MBIFS, responder sweep, feedback (Sec. 2's O(N) SLS).
  const double tx_us =
      tx_sectors * timing.ssw_frame_us + (tx_sectors - 1) * timing.sbifs_us;
  const double rx_us =
      rx_sectors * timing.ssw_frame_us + (rx_sectors - 1) * timing.sbifs_us;
  return (tx_us + timing.mbifs_us + rx_us + timing.mbifs_us +
          timing.feedback_us) /
         1000.0;
}

double exhaustive_duration_ms(int tx_sectors, int rx_sectors,
                              const SswTiming& timing) {
  const long probes = static_cast<long>(tx_sectors) * rx_sectors;
  const double sweep_us =
      probes * timing.ssw_frame_us + (probes - 1) * timing.sbifs_us;
  return (sweep_us + timing.mbifs_us + timing.feedback_us) / 1000.0;
}

double expected_abft_intervals(int contenders) {
  if (contenders < 1) throw std::invalid_argument("contenders < 1");
  if (contenders == 1) return 1.0;
  // A station succeeds in a BI if no other contender picked its slot:
  // p = (1 - 1/slots)^(contenders-1); geometric expectation 1/p.
  const double p = std::pow(1.0 - 1.0 / kAbftSlots, contenders - 1);
  return 1.0 / p;
}

}  // namespace libra::mac
