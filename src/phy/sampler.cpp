#include "phy/sampler.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "obs/metrics.h"
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
  std::uint64_t tap_key = 0;
};

PhySampler::RatePass PhySampler::rate_pass(const channel::Link& link,
                                           double rx_dbm,
                                           double jam_floor_dbm,
                                           McsIndex mcs,
                                           util::Rng& rng) const {
  RatePass pass;
  const double clean_floor = link.clean_floor_dbm();
  pass.snr.clean_db = rx_dbm - clean_floor;
  pass.snr.jammed_db = rx_dbm - jam_floor_dbm;

  RateObservation& r = pass.rate;
  r.mcs = mcs;
  const double duty = link.interferer_duty();
  r.snr_db = duty_average(duty, pass.snr.clean_db, pass.snr.jammed_db) +
             rng.gaussian(0.0, cfg_.snr_jitter_db);
  r.noise_dbm = duty_average(duty, clean_floor, jam_floor_dbm) +
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

PdpConfig PhySampler::detection_config(double jam_floor_dbm) const {
  // Taps are detectable only above the receiver's effective noise floor;
  // this is what makes X60 report ToF = infinity for very weak signals.
  PdpConfig pdp_cfg = cfg_.pdp;
  pdp_cfg.noise_floor_mw = libra::util::dbm_to_mw(jam_floor_dbm - 6.0);
  return pdp_cfg;
}

double PhySampler::pdp_taps(const channel::Link& link, array::BeamId tx_beam,
                            array::BeamId rx_beam, const PdpConfig& pdp_cfg,
                            std::vector<double>& pdp) const {
  pdp.assign(static_cast<std::size_t>(pdp_cfg.num_taps),
             pdp_cfg.noise_floor_mw);
  double total_mw = 0.0;
  link.for_each_contribution(
      tx_beam, rx_beam, [&](const channel::PathContribution& c) {
        total_mw += c.power_mw;
        add_path_to_pdp(pdp, c.delay_ns, c.power_mw, pdp_cfg);
      });
  return total_mw;
}

void PhySampler::finish_pdp(std::uint64_t tap_key, const PdpConfig& pdp_cfg,
                            PhyObservation& obs) const {
  util::KeyedNormals tap_jitter(tap_key);
  for (double& tap : obs.pdp) {
    tap *= std::exp(cfg_.pdp_tap_jitter * tap_jitter.next());
  }
  obs.tof_ns = time_of_flight_ns(obs.pdp, pdp_cfg);
  obs.csi = csi_from_pdp(obs.pdp);
}

namespace {

// An observation's scalars, PDP, ToF and CSI left empty.
PhyObservation scalar_observation(const RateObservation& rate) {
  PhyObservation obs;
  obs.snr_db = rate.snr_db;
  obs.noise_dbm = rate.noise_dbm;
  obs.cdr = rate.cdr;
  obs.throughput_mbps = rate.throughput_mbps;
  obs.mcs = rate.mcs;
  return obs;
}

obs::Counter& pdp_materialized_counter() {
  static obs::Counter& c =
      obs::Registry::global().counter("phy.pdp_materialized");
  return c;
}

}  // namespace

PhyObservation PhySampler::observe(const channel::Link& link,
                                   array::BeamId tx_beam,
                                   array::BeamId rx_beam, McsIndex mcs,
                                   util::Rng& rng) const {
  // One channel pass builds the taps and, from their path-order power sum,
  // the received power the scalars need.
  const double jam_floor_dbm = link.noise_floor_dbm(rx_beam);
  const PdpConfig pdp_cfg = detection_config(jam_floor_dbm);
  std::vector<double> pdp;
  const double total_mw = pdp_taps(link, tx_beam, rx_beam, pdp_cfg, pdp);
  const RatePass pass =
      rate_pass(link, channel::total_power_dbm(total_mw, link.fade_db()),
                jam_floor_dbm, mcs, rng);

  PhyObservation obs = scalar_observation(pass.rate);
  obs.pdp = std::move(pdp);
  finish_pdp(pass.tap_key, pdp_cfg, obs);
  return obs;
}

ScalarObservation PhySampler::observe_scalars(const channel::Link& link,
                                              array::BeamId tx_beam,
                                              array::BeamId rx_beam,
                                              McsIndex mcs,
                                              util::Rng& rng) const {
  const RatePass pass =
      rate_pass(link, link.rx_power_dbm(tx_beam, rx_beam),
                link.noise_floor_dbm(rx_beam), mcs, rng);
  return {scalar_observation(pass.rate), {tx_beam, rx_beam, pass.tap_key},
          pass.snr};
}

void PhySampler::materialize(const channel::Link& link,
                             const PdpTicket& ticket,
                             PhyObservation& obs) const {
  const PdpConfig pdp_cfg =
      detection_config(link.noise_floor_dbm(ticket.rx_beam));
  pdp_taps(link, ticket.tx_beam, ticket.rx_beam, pdp_cfg, obs.pdp);
  finish_pdp(ticket.tap_key, pdp_cfg, obs);
  pdp_materialized_counter().inc();
}

RateObservation PhySampler::observe_rate(const channel::Link& link,
                                         array::BeamId tx_beam,
                                         array::BeamId rx_beam, McsIndex mcs,
                                         util::Rng& rng) const {
  return rate_pass(link, link.rx_power_dbm(tx_beam, rx_beam),
                   link.noise_floor_dbm(rx_beam), mcs, rng)
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
                                  util::KeyedNormals& jitter) const {
  const double rx_dbm = grid.rx_power_dbm(tx_beam, rx_beam);
  return duty_average(grid.interferer_duty(), rx_dbm - grid.clean_floor_dbm(),
                      rx_dbm - grid.noise_floor_dbm(rx_beam)) +
         cfg_.snr_jitter_db * jitter.next();
}

}  // namespace libra::phy
