// A Tx-Rx 60 GHz link: environment + two phased arrays + the ray-traced
// multipath channel between them. Produces, per beam pair, the quantities
// the X60 testbed logs: received power, SNR, and per-path contributions
// (from which the PHY layer synthesizes the PDP and the ToF).
#pragma once

#include <optional>
#include <vector>

#include "array/phased_array.h"
#include "channel/link_budget.h"
#include "channel/path_tracer.h"
#include "env/environment.h"
#include "util/units.h"

namespace libra::channel {

// A hidden-terminal interferer (Sec. 4.2 "Interference"): a CSMA 60 GHz
// source at a fixed position that transmits in bursts (duty_cycle fraction
// of airtime). During a burst its power reaches the Rx through the Rx beam
// pattern and the multipath between interferer and Rx. Because the coupling
// depends on the Rx beam's gain toward the interferer, changing beams can
// sometimes mitigate it -- which is why BA still wins about a third of the
// interference cases in the paper's dataset (Table 1) -- but bursts arriving
// through the serving beam cannot be escaped, which is why RA usually wins.
struct Interferer {
  geom::Vec2 position;
  double eirp_dbm = 20.0;
  double duty_cycle = 1.0;  // fraction of airtime the interferer transmits

  bool operator==(const Interferer&) const = default;
};

// Received power reported when no path (or no interferer) reaches the Rx.
inline constexpr double kNoSignalDbm = -200.0;

// The direction-independent losses of one traced path, evaluated from the
// link's current state (blockers included).
struct PathLoss {
  double path_loss_db = 0.0;        // FSPL + O2 absorption + impl. loss
  double reflection_loss_db = 0.0;  // sum of per-bounce material losses
  double blockage_db = 0.0;         // summed over legs, in blocker order
};

// A path's direction-independent received power (mW): the Tx power less
// the path's losses, converted to the linear domain once.
inline double path_base_mw(double tx_power_dbm, const PathLoss& loss) {
  return libra::util::dbm_to_mw(tx_power_dbm - loss.path_loss_db -
                                loss.reflection_loss_db - loss.blockage_db);
}

// Received power (mW) of one path through a beam pair: its base power times
// the two linear beam gains. Link's per-pair queries and BeamGrid both
// evaluate exactly this product, in this operand order, so a grid SNR is
// bit-identical to the per-pair query.
inline double path_power_mw(double base_mw, double tx_gain_lin,
                            double rx_gain_lin) {
  return base_mw * tx_gain_lin * rx_gain_lin;
}

// Total received power from the path-order sum of per-path powers (mW):
// the non-coherent sum plus the fade, or -200 dBm when nothing arrives.
inline double total_power_dbm(double total_mw, double fade_db) {
  if (total_mw <= 0.0) return kNoSignalDbm;
  return libra::util::mw_to_dbm(total_mw) + fade_db;
}

// What the PDP needs of one path through a beam pair.
struct PathContribution {
  double power_mw;  // through the current beam pair, incl. blockage
  double delay_ns;
};

class Link {
 public:
  Link(const env::Environment* env, array::PhasedArray* tx,
       array::PhasedArray* rx, LinkBudgetConfig cfg = {});

  // Re-run the ray tracer. Must be called after the Tx or Rx moves or the
  // environment's walls change. Blocker changes do NOT require a refresh
  // (blockage is applied per query).
  void refresh();

  // Direction-independent losses of one of paths() (blockage per leg).
  PathLoss path_loss(const Path& p) const;

  // Per-path received power for a beam pair (blockage applied per leg),
  // handed to fn(const PathContribution&) one path at a time in path order.
  template <class Fn>
  void for_each_contribution(array::BeamId tx_beam, array::BeamId rx_beam,
                             Fn&& fn) const {
    using libra::util::db_to_linear;
    for (const Path& p : paths_) {
      fn(PathContribution{
          path_power_mw(path_base_mw(cfg_.tx_power_dbm, path_loss(p)),
                        db_to_linear(tx_->gain_dbi(tx_beam, p.aod_deg)),
                        db_to_linear(rx_->gain_dbi(rx_beam, p.aoa_deg))),
          p.length_m / libra::util::kSpeedOfLightMps *
              libra::util::kNsPerSecond});
    }
  }

  // Total received power: non-coherent sum over paths. Returns a very low
  // floor (-200 dBm) when no path exists.
  double rx_power_dbm(array::BeamId tx_beam, array::BeamId rx_beam) const;

  // SINR over the effective noise floor seen by this Rx beam while the
  // interferer (if any) is transmitting (thermal + flat rise + interferer
  // coupling). With no interferer this equals snr_clean_db.
  double snr_db(array::BeamId tx_beam, array::BeamId rx_beam) const;

  // SNR excluding the burst interferer (between bursts).
  double snr_clean_db(array::BeamId tx_beam, array::BeamId rx_beam) const;

  double thermal_floor_dbm() const { return thermal_floor_dbm_; }
  // Noise floor between interferer bursts: thermal + flat rise.
  double clean_floor_dbm() const {
    return thermal_floor_dbm_ + interference_rise_db_;
  }
  // Effective noise floor for a given Rx beam. With kQuasiOmni this is what
  // a COTS device would report as its noise level.
  double noise_floor_dbm(array::BeamId rx_beam = array::kQuasiOmni) const;

  // Temporal fading offset (dB) applied to the received signal power on
  // every path; driven by a channel::FadingProcess during live sessions.
  void set_fade_db(double fade_db) { fade_db_ = fade_db; }
  double fade_db() const { return fade_db_; }

  // Flat interference: rise (dB) of the noise floor on every beam equally.
  void set_interference_rise_db(double rise_db) {
    interference_rise_db_ = rise_db;
  }
  double interference_rise_db() const { return interference_rise_db_; }

  // Directional hidden-terminal interferer; coupling depends on the Rx beam.
  // Setting the interferer already in place is a no-op (no re-trace): after
  // moving the Rx, call refresh(), which re-traces the interferer too.
  void set_interferer(std::optional<Interferer> interferer);
  const std::optional<Interferer>& interferer() const { return interferer_; }
  // Fraction of airtime the interferer jams (0 with no interferer).
  double interferer_duty() const {
    return interferer_ ? interferer_->duty_cycle : 0.0;
  }
  // Interference power (dBm) leaking into the given Rx beam; -inf-ish floor
  // when no interferer is present.
  double interference_power_dbm(array::BeamId rx_beam) const;

  const std::vector<Path>& paths() const { return paths_; }
  const env::Environment& environment() const { return *env_; }
  array::PhasedArray& tx() { return *tx_; }
  array::PhasedArray& rx() { return *rx_; }
  const array::PhasedArray& tx() const { return *tx_; }
  const array::PhasedArray& rx() const { return *rx_; }
  const LinkBudgetConfig& budget() const { return cfg_; }

 private:
  const env::Environment* env_;  // non-owning
  array::PhasedArray* tx_;       // non-owning
  array::PhasedArray* rx_;       // non-owning
  LinkBudgetConfig cfg_;
  PathTracer tracer_;
  std::vector<Path> paths_;
  // Multipath from the interferer to the Rx: interference arrives from
  // several directions (LOS + reflections), so switching the Rx beam only
  // partially escapes it -- the reason RA remains the better choice in most
  // interference cases (Table 1).
  std::vector<Path> interferer_paths_;
  double thermal_floor_dbm_;
  double interference_rise_db_ = 0.0;
  double fade_db_ = 0.0;
  std::optional<Interferer> interferer_;
};

}  // namespace libra::channel
