#include "channel/link.h"

#include <stdexcept>

#include "util/units.h"

namespace libra::channel {

Link::Link(const env::Environment* env, array::PhasedArray* tx,
           array::PhasedArray* rx, LinkBudgetConfig cfg)
    : env_(env),
      tx_(tx),
      rx_(rx),
      cfg_(cfg),
      thermal_floor_dbm_(thermal_noise_floor_dbm()) {
  if (!env_ || !tx_ || !rx_) throw std::invalid_argument("null link member");
  refresh();
}

void Link::refresh() {
  paths_ = tracer_.trace(*env_, tx_->position(), rx_->position());
  if (interferer_) {
    interferer_paths_ =
        tracer_.trace(*env_, interferer_->position, rx_->position());
  } else {
    interferer_paths_.clear();
  }
}

void Link::set_interferer(std::optional<Interferer> interferer) {
  if (interferer == interferer_) return;
  interferer_ = interferer;
  if (interferer_) {
    interferer_paths_ =
        tracer_.trace(*env_, interferer_->position, rx_->position());
  } else {
    interferer_paths_.clear();
  }
}

PathLoss Link::path_loss(const Path& p) const {
  PathLoss loss;
  for (std::size_t i = 0; i + 1 < p.points.size(); ++i) {
    loss.blockage_db += env_->blockage_loss_db(p.points[i], p.points[i + 1]);
  }
  loss.path_loss_db = path_loss_db(p.length_m);
  loss.reflection_loss_db = p.reflection_loss_db;
  return loss;
}

double Link::rx_power_dbm(array::BeamId tx_beam, array::BeamId rx_beam) const {
  double total_mw = 0.0;
  for_each_contribution(tx_beam, rx_beam, [&](const PathContribution& c) {
    total_mw += c.power_mw;
  });
  return total_power_dbm(total_mw, fade_db_);
}

double Link::interference_power_dbm(array::BeamId rx_beam) const {
  if (!interferer_) return kNoSignalDbm;
  double total_mw = 0.0;
  for (const Path& p : interferer_paths_) {
    const double power = interferer_->eirp_dbm +
                         rx_->gain_dbi(rx_beam, p.aoa_deg) -
                         path_loss_db(p.length_m) - p.reflection_loss_db;
    total_mw += libra::util::dbm_to_mw(power);
  }
  if (total_mw <= 0.0) return kNoSignalDbm;
  return libra::util::mw_to_dbm(total_mw);
}

double Link::noise_floor_dbm(array::BeamId rx_beam) const {
  const double base = clean_floor_dbm();
  if (!interferer_) return base;
  return libra::util::dbm_add(base, interference_power_dbm(rx_beam));
}

double Link::snr_db(array::BeamId tx_beam, array::BeamId rx_beam) const {
  return rx_power_dbm(tx_beam, rx_beam) - noise_floor_dbm(rx_beam);
}

double Link::snr_clean_db(array::BeamId tx_beam,
                          array::BeamId rx_beam) const {
  return rx_power_dbm(tx_beam, rx_beam) - clean_floor_dbm();
}

}  // namespace libra::channel
