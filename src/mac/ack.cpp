#include "mac/ack.h"

#include <cmath>
#include <stdexcept>

namespace libra::mac {

AckModel::AckModel(const phy::ErrorModel* error_model)
    : error_model_(error_model) {
  if (!error_model_) throw std::invalid_argument("null error model");
}

double AckModel::ack_probability(phy::McsIndex mcs, double snr_db) const {
  const double p_subframe =
      error_model_->codeword_success_prob(mcs, snr_db);
  return 1.0 - std::pow(1.0 - p_subframe, kAckSubframes);
}

bool AckModel::ack_received(phy::McsIndex mcs, double snr_db,
                            util::Rng& rng) const {
  return rng.bernoulli(ack_probability(mcs, snr_db));
}

}  // namespace libra::mac
