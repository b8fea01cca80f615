// Per-sweep beam-gain grid.
//
// A sector sweep probes many beam pairs of one link in one channel state.
// Per pair, Link re-derives every path's two beam gains, its path loss and
// its blockage walk; but the paths are few (mmWave multipath is sparse) and
// only the gains depend on the beams. The grid works in the linear domain:
// it converts each path's base power (Tx power less its losses) once, its
// Tx gain once per Tx beam and its Rx gain once per Rx beam (plus
// kQuasiOmni), and evaluates the noise floor once per Rx beam. A pair then
// costs one product and one add per path, and one log10.
//
// Every pair goes through the same channel::path_power_mw and
// total_power_dbm as Link's per-pair queries, with the same operands in the
// same order, so grid values are bit-identical to Link::rx_power_dbm /
// snr_clean_db / snr_db. The grid is a snapshot: rebuild it after the link
// state (poses, blockers, interferer, fade, rise) changes. It is meant to
// be transient -- build() reuses its storage, so one grid per thread serves
// every sweep without allocating.
#pragma once

#include <cstddef>
#include <vector>

#include "array/codebook.h"
#include "channel/link.h"

namespace libra::channel {

class BeamGrid {
 public:
  BeamGrid() = default;
  explicit BeamGrid(const Link& link) { build(link); }

  // Snapshot the link's current state, reusing this grid's storage.
  void build(const Link& link);

  int num_tx_beams() const { return num_tx_; }
  int num_rx_beams() const { return num_rx_; }
  // Fraction of airtime the link's interferer jams (0 with none).
  double interferer_duty() const { return duty_; }
  double clean_floor_dbm() const { return clean_floor_dbm_; }
  // Noise floor for a real Rx beam or kQuasiOmni (Link::noise_floor_dbm).
  double noise_floor_dbm(array::BeamId rx_beam) const {
    return noise_floor_dbm_[row(rx_beam)];
  }

  // Bit-identical to the Link queries of the same name.
  double rx_power_dbm(array::BeamId tx_beam, array::BeamId rx_beam) const {
    const double* tx =
        tx_gain_lin_.data() + static_cast<std::size_t>(tx_beam) * paths_;
    const double* rx = rx_gain_lin_.data() + row(rx_beam) * paths_;
    double total_mw = 0.0;
    for (std::size_t p = 0; p < paths_; ++p) {
      total_mw += path_power_mw(base_mw_[p], tx[p], rx[p]);
    }
    return total_power_dbm(total_mw, fade_db_);
  }
  double snr_clean_db(array::BeamId tx_beam, array::BeamId rx_beam) const {
    return rx_power_dbm(tx_beam, rx_beam) - clean_floor_dbm_;
  }
  double snr_db(array::BeamId tx_beam, array::BeamId rx_beam) const {
    return rx_power_dbm(tx_beam, rx_beam) - noise_floor_dbm(rx_beam);
  }

 private:
  // Rx rows: 0 is kQuasiOmni, beam b is row b + 1.
  static_assert(array::kQuasiOmni == -1);
  static std::size_t row(array::BeamId rx_beam) {
    return static_cast<std::size_t>(rx_beam + 1);
  }

  std::size_t paths_ = 0;
  int num_tx_ = 0;
  int num_rx_ = 0;
  double fade_db_ = 0.0;
  double clean_floor_dbm_ = 0.0;
  double duty_ = 0.0;
  std::vector<double> base_mw_;           // [path]
  std::vector<double> tx_gain_lin_;       // [tx_beam * paths + path]
  std::vector<double> rx_gain_lin_;       // [row(rx_beam) * paths + path]
  std::vector<double> noise_floor_dbm_;   // [row(rx_beam)]
};

}  // namespace libra::channel
