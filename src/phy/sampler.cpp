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

struct PhySampler::RatePass {
  RateObservation rate;
  ChannelSnr snr;
  double jam_floor_dbm = 0.0;
  std::uint64_t tap_key = 0;
};

PhySampler::RatePass PhySampler::rate_pass(const channel::Link& link,
                                           double rx_dbm,
                                           array::BeamId rx_beam,
                                           McsIndex mcs,
                                           util::Rng& rng) const {
  RatePass pass;
  const double clean_floor = link.clean_floor_dbm();
  pass.jam_floor_dbm = link.noise_floor_dbm(rx_beam);
  pass.snr.clean_db = rx_dbm - clean_floor;
  pass.snr.jammed_db = rx_dbm - pass.jam_floor_dbm;

  RateObservation& r = pass.rate;
  r.mcs = mcs;
  const double duty = link.interferer_duty();
  r.snr_db = duty_average(duty, pass.snr.clean_db, pass.snr.jammed_db) +
             rng.gaussian(0.0, cfg_.snr_jitter_db);
  r.noise_dbm = duty_average(duty, clean_floor, pass.jam_floor_dbm) +
                rng.gaussian(0.0, cfg_.noise_jitter_db);
  pass.tap_key = rng.raw();
  const double expected_cdr = duty_average(
      duty, error_model_->expected_cdr(mcs, pass.snr.clean_db),
      error_model_->expected_cdr(mcs, pass.snr.jammed_db));
  r.cdr = std::clamp(expected_cdr + rng.gaussian(0.0, cfg_.cdr_jitter), 0.0,
                     1.0);
  r.throughput_mbps = error_model_->table().rate_mbps(mcs) * r.cdr *
                      error_model_->config().framing_efficiency;
  return pass;
}

PhyObservation PhySampler::observe(const channel::Link& link,
                                   array::BeamId tx_beam,
                                   array::BeamId rx_beam, McsIndex mcs,
                                   util::Rng& rng,
                                   ChannelSnr* channel_snr) const {
  // One channel pass: the per-path contributions give the received power
  // and, below, the PDP. Their path-order sum is Link::rx_power_dbm's.
  const std::vector<channel::PathContribution> contributions =
      link.contributions(tx_beam, rx_beam);
  double total_mw = 0.0;
  for (const channel::PathContribution& c : contributions) {
    total_mw += libra::util::dbm_to_mw(c.rx_power_dbm);
  }
  const RatePass pass =
      rate_pass(link, channel::total_power_dbm(total_mw, link.fade_db()),
                rx_beam, mcs, rng);
  if (channel_snr != nullptr) *channel_snr = pass.snr;

  PhyObservation obs;
  obs.snr_db = pass.rate.snr_db;
  obs.noise_dbm = pass.rate.noise_dbm;
  obs.cdr = pass.rate.cdr;
  obs.throughput_mbps = pass.rate.throughput_mbps;
  obs.mcs = mcs;

  // Taps are detectable only above the receiver's effective noise floor;
  // this is what makes X60 report ToF = infinity for very weak signals.
  PdpConfig pdp_cfg = cfg_.pdp;
  pdp_cfg.noise_floor_mw = libra::util::dbm_to_mw(pass.jam_floor_dbm - 6.0);
  obs.pdp = synthesize_pdp(contributions, pdp_cfg);
  util::KeyedNormals tap_jitter(pass.tap_key);
  for (double& tap : obs.pdp) {
    tap *= std::exp(cfg_.pdp_tap_jitter * tap_jitter.next());
  }
  obs.tof_ns = time_of_flight_ns(obs.pdp, pdp_cfg);
  obs.csi = csi_from_pdp(obs.pdp);
  return obs;
}

RateObservation PhySampler::observe_rate(const channel::Link& link,
                                         array::BeamId tx_beam,
                                         array::BeamId rx_beam, McsIndex mcs,
                                         util::Rng& rng) const {
  return rate_pass(link, link.rx_power_dbm(tx_beam, rx_beam), rx_beam, mcs,
                   rng)
      .rate;
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
