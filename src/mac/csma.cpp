#include "mac/csma.h"

#include <algorithm>
#include <stdexcept>

namespace libra::mac {

double unthrottled_duty(double offered_load) {
  if (offered_load < 0.0 || offered_load > 1.0) {
    throw std::invalid_argument("offered_load must be in [0, 1]");
  }
  const double busy = kFrameAirtimeMs / (kFrameAirtimeMs + kContentionMs);
  return offered_load * busy;
}

bool can_sense(const channel::Link& talker_to_listener,
               array::BeamId talker_beam, array::BeamId listener_beam) {
  return talker_to_listener.rx_power_dbm(talker_beam, listener_beam) >=
         kSensingThresholdDbm;
}

double interference_duty(bool interferer_senses_victim, double offered_load) {
  if (interferer_senses_victim) {
    // CSMA defers: residual overlap only from the vulnerable window around
    // each frame start, negligible at these airtimes.
    return 0.0;
  }
  return unthrottled_duty(offered_load);
}

}  // namespace libra::mac
