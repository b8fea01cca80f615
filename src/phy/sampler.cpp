#include "phy/sampler.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "util/units.h"

namespace libra::phy {

PhySampler::PhySampler(const ErrorModel* error_model, SamplerConfig cfg)
    : error_model_(error_model), cfg_(cfg) {
  if (!error_model_) throw std::invalid_argument("null error model");
}

namespace {

// A bursty interferer jams `duty` of the frames; per-frame logs average the
// clean and jammed regimes.
double duty_average(double duty, double clean, double jammed) {
  return (1.0 - duty) * clean + duty * jammed;
}

}  // namespace

PhyObservation PhySampler::observe(const channel::Link& link,
                                   array::BeamId tx_beam,
                                   array::BeamId rx_beam, McsIndex mcs,
                                   util::Rng& rng) const {
  PhyObservation obs;
  obs.mcs = mcs;

  // One channel pass: the per-path contributions give the received power
  // and, below, the PDP.
  const std::vector<channel::PathContribution> contributions =
      link.contributions(tx_beam, rx_beam);
  double total_mw = 0.0;
  for (const channel::PathContribution& c : contributions) {
    total_mw += libra::util::dbm_to_mw(c.rx_power_dbm);
  }
  const double rx_dbm = channel::total_power_dbm(total_mw, link.fade_db());
  const double clean_floor = link.clean_floor_dbm();
  const double jam_floor = link.noise_floor_dbm(rx_beam);
  const double snr_clean = rx_dbm - clean_floor;
  const double snr_jam = rx_dbm - jam_floor;

  const double duty = link.interferer_duty();
  obs.snr_db = duty_average(duty, snr_clean, snr_jam) +
               rng.gaussian(0.0, cfg_.snr_jitter_db);
  obs.noise_dbm = duty_average(duty, clean_floor, jam_floor) +
                  rng.gaussian(0.0, cfg_.noise_jitter_db);

  // Taps are detectable only above the receiver's effective noise floor;
  // this is what makes X60 report ToF = infinity for very weak signals.
  PdpConfig pdp_cfg = cfg_.pdp;
  pdp_cfg.noise_floor_mw = libra::util::dbm_to_mw(jam_floor - 6.0);
  obs.pdp = synthesize_pdp(contributions, pdp_cfg);
  for (double& tap : obs.pdp) {
    tap *= std::exp(rng.gaussian(0.0, cfg_.pdp_tap_jitter));
  }
  obs.tof_ns = time_of_flight_ns(obs.pdp, pdp_cfg);
  obs.csi = csi_from_pdp(obs.pdp);

  const double expected_cdr =
      duty_average(duty, error_model_->expected_cdr(mcs, snr_clean),
                   error_model_->expected_cdr(mcs, snr_jam));
  obs.cdr = std::clamp(expected_cdr + rng.gaussian(0.0, cfg_.cdr_jitter), 0.0,
                       1.0);
  obs.throughput_mbps = error_model_->table().rate_mbps(mcs) * obs.cdr *
                        error_model_->config().framing_efficiency;
  return obs;
}

double PhySampler::measure_snr_db(const channel::Link& link,
                                  array::BeamId tx_beam,
                                  array::BeamId rx_beam,
                                  util::Rng& rng) const {
  const double rx_dbm = link.rx_power_dbm(tx_beam, rx_beam);
  return duty_average(link.interferer_duty(), rx_dbm - link.clean_floor_dbm(),
                      rx_dbm - link.noise_floor_dbm(rx_beam)) +
         rng.gaussian(0.0, cfg_.snr_jitter_db);
}

double PhySampler::measure_snr_db(const channel::BeamGrid& grid,
                                  array::BeamId tx_beam,
                                  array::BeamId rx_beam,
                                  util::Rng& rng) const {
  const double rx_dbm = grid.rx_power_dbm(tx_beam, rx_beam);
  return duty_average(grid.interferer_duty(), rx_dbm - grid.clean_floor_dbm(),
                      rx_dbm - grid.noise_floor_dbm(rx_beam)) +
         rng.gaussian(0.0, cfg_.snr_jitter_db);
}

}  // namespace libra::phy
