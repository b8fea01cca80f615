#include "channel/beam_grid.h"

namespace libra::channel {

void BeamGrid::build(const Link& link) {
  const std::vector<Path>& paths = link.paths();
  paths_ = paths.size();
  num_tx_ = link.tx().codebook().size();
  num_rx_ = link.rx().codebook().size();
  tx_power_dbm_ = link.budget().tx_power_dbm;
  fade_db_ = link.fade_db();
  clean_floor_dbm_ = link.clean_floor_dbm();
  duty_ = link.interferer_duty();

  loss_.clear();
  for (const Path& p : paths) loss_.push_back(link.path_loss(p));

  tx_gain_.clear();
  for (array::BeamId tb = 0; tb < num_tx_; ++tb) {
    for (const Path& p : paths) {
      tx_gain_.push_back(link.tx().gain_dbi(tb, p.aod_deg));
    }
  }

  rx_gain_.clear();
  noise_floor_dbm_.clear();
  for (array::BeamId rb = array::kQuasiOmni; rb < num_rx_; ++rb) {
    for (const Path& p : paths) {
      rx_gain_.push_back(link.rx().gain_dbi(rb, p.aoa_deg));
    }
    noise_floor_dbm_.push_back(link.noise_floor_dbm(rb));
  }
}

}  // namespace libra::channel
