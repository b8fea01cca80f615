#include "channel/beam_grid.h"

namespace libra::channel {

void BeamGrid::build(const Link& link) {
  using libra::util::db_to_linear;
  const std::vector<Path>& paths = link.paths();
  paths_ = paths.size();
  num_tx_ = link.tx().codebook().size();
  num_rx_ = link.rx().codebook().size();
  fade_db_ = link.fade_db();
  clean_floor_dbm_ = link.clean_floor_dbm();
  duty_ = link.interferer_duty();

  base_mw_.clear();
  for (const Path& p : paths) {
    base_mw_.push_back(
        path_base_mw(link.budget().tx_power_dbm, link.path_loss(p)));
  }

  tx_gain_lin_.clear();
  for (array::BeamId tb = 0; tb < num_tx_; ++tb) {
    for (const Path& p : paths) {
      tx_gain_lin_.push_back(db_to_linear(link.tx().gain_dbi(tb, p.aod_deg)));
    }
  }

  rx_gain_lin_.clear();
  noise_floor_dbm_.clear();
  for (array::BeamId rb = array::kQuasiOmni; rb < num_rx_; ++rb) {
    for (const Path& p : paths) {
      rx_gain_lin_.push_back(db_to_linear(link.rx().gain_dbi(rb, p.aoa_deg)));
    }
    noise_floor_dbm_.push_back(link.noise_floor_dbm(rb));
  }
}

}  // namespace libra::channel
