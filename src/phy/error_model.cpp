#include "phy/error_model.h"

#include <cmath>
#include <stdexcept>

namespace libra::phy {

ErrorModel::ErrorModel(const McsTable* table, ErrorModelConfig cfg)
    : table_(table), cfg_(cfg) {
  if (!table_) throw std::invalid_argument("null MCS table");
  if (cfg_.waterfall_width_db <= 0.0) {
    throw std::invalid_argument("waterfall width must be positive");
  }
}

double ErrorModel::codeword_success_prob(McsIndex mcs, double snr_db) const {
  const double margin = snr_db - table_->entry(mcs).snr_threshold_db;
  // Logistic scaled so +width dB of margin ~ 90% success.
  const double k = std::log(9.0) / cfg_.waterfall_width_db;
  return 1.0 / (1.0 + std::exp(-k * margin));
}

double ErrorModel::expected_cdr(McsIndex mcs, double snr_db) const {
  return codeword_success_prob(mcs, snr_db);
}

double ErrorModel::expected_throughput_mbps(McsIndex mcs, double snr_db) const {
  return table_->rate_mbps(mcs) * expected_cdr(mcs, snr_db) *
         kFramingEfficiency;
}

}  // namespace libra::phy
