#include "mac/beam_training.h"

#include <algorithm>
#include <cstdlib>

namespace libra::mac {

namespace {
double probes_to_ms(int probes) {
  return static_cast<double>(probes) * kProbeUs / 1000.0;
}

// The calling thread's sweep grid, rebuilt for `link`. Sweeps never nest,
// so one grid per thread serves them all without allocating per sweep.
const channel::BeamGrid& scratch_grid(const channel::Link& link) {
  thread_local channel::BeamGrid grid;
  grid.build(link);
  return grid;
}
}  // namespace

SweepResult BeamTrainer::exhaustive(const channel::Link& link,
                                    const phy::PhySampler& sampler,
                                    util::Rng& rng) const {
  return exhaustive(scratch_grid(link), sampler, rng);
}

SweepResult BeamTrainer::exhaustive(const channel::BeamGrid& grid,
                                    const phy::PhySampler& sampler,
                                    util::Rng& rng) const {
  util::KeyedNormals jitter(rng.raw());
  SweepResult best;
  best.snr_db = -1e9;
  const int n_tx = grid.num_tx_beams();
  const int n_rx = grid.num_rx_beams();
  for (array::BeamId tb = 0; tb < n_tx; ++tb) {
    for (array::BeamId rb = 0; rb < n_rx; ++rb) {
      const double snr = sampler.measure_snr_db(grid, tb, rb, jitter);
      ++best.measurements;
      if (snr > best.snr_db) {
        best.snr_db = snr;
        best.tx_beam = tb;
        best.rx_beam = rb;
      }
    }
  }
  best.duration_ms = probes_to_ms(best.measurements);
  return best;
}

SweepResult BeamTrainer::sls_80211ad(const channel::Link& link,
                                     const phy::PhySampler& sampler,
                                     util::Rng& rng) const {
  const channel::BeamGrid& grid = scratch_grid(link);
  util::KeyedNormals jitter(rng.raw());
  SweepResult best;
  best.snr_db = -1e9;
  // Phase 1: Tx sweep, quasi-omni reception.
  for (array::BeamId tb = 0; tb < grid.num_tx_beams(); ++tb) {
    const double snr =
        sampler.measure_snr_db(grid, tb, array::kQuasiOmni, jitter);
    ++best.measurements;
    if (snr > best.snr_db) {
      best.snr_db = snr;
      best.tx_beam = tb;
    }
  }
  // Phase 2: Rx sweep with the chosen Tx beam... the standard actually uses
  // quasi-omni transmission, but evaluating with the trained Tx beam is
  // equivalent for pair selection and matches what devices do in practice.
  double best_rx_snr = -1e9;
  best.rx_beam = 0;
  for (array::BeamId rb = 0; rb < grid.num_rx_beams(); ++rb) {
    const double snr = sampler.measure_snr_db(grid, best.tx_beam, rb, jitter);
    ++best.measurements;
    if (snr > best_rx_snr) {
      best_rx_snr = snr;
      best.rx_beam = rb;
    }
  }
  best.snr_db = best_rx_snr;
  best.duration_ms = probes_to_ms(best.measurements);
  return best;
}

SweepResult BeamTrainer::sls_tx_only(const channel::Link& link,
                                     const phy::PhySampler& sampler,
                                     util::Rng& rng) const {
  const channel::BeamGrid& grid = scratch_grid(link);
  util::KeyedNormals jitter(rng.raw());
  SweepResult best;
  best.snr_db = -1e9;
  best.rx_beam = array::kQuasiOmni;
  for (array::BeamId tb = 0; tb < grid.num_tx_beams(); ++tb) {
    const double snr =
        sampler.measure_snr_db(grid, tb, array::kQuasiOmni, jitter);
    ++best.measurements;
    if (snr > best.snr_db) {
      best.snr_db = snr;
      best.tx_beam = tb;
    }
  }
  best.duration_ms = probes_to_ms(best.measurements);
  return best;
}

SweepResult BeamTrainer::coarse_fine(const channel::Link& link,
                                     const phy::PhySampler& sampler,
                                     util::Rng& rng, int stride,
                                     int radius) const {
  const channel::BeamGrid& grid = scratch_grid(link);
  util::KeyedNormals jitter(rng.raw());
  SweepResult best;
  best.snr_db = -1e9;
  const int n_tx = grid.num_tx_beams();
  const int n_rx = grid.num_rx_beams();

  // Level 1: coarse grid, offset so the probes straddle the span center.
  const int offset = stride / 2;
  for (array::BeamId tb = offset; tb < n_tx; tb += stride) {
    for (array::BeamId rb = offset; rb < n_rx; rb += stride) {
      const double snr = sampler.measure_snr_db(grid, tb, rb, jitter);
      ++best.measurements;
      if (snr > best.snr_db) {
        best.snr_db = snr;
        best.tx_beam = tb;
        best.rx_beam = rb;
      }
    }
  }

  // Level 2: exhaustive refinement around the coarse winner.
  const array::BeamId coarse_tx = best.tx_beam;
  const array::BeamId coarse_rx = best.rx_beam;
  for (array::BeamId tb = std::max(0, coarse_tx - radius);
       tb <= std::min(n_tx - 1, coarse_tx + radius); ++tb) {
    for (array::BeamId rb = std::max(0, coarse_rx - radius);
         rb <= std::min(n_rx - 1, coarse_rx + radius); ++rb) {
      if (tb == coarse_tx && rb == coarse_rx) continue;  // already measured
      const double snr = sampler.measure_snr_db(grid, tb, rb, jitter);
      ++best.measurements;
      if (snr > best.snr_db) {
        best.snr_db = snr;
        best.tx_beam = tb;
        best.rx_beam = rb;
      }
    }
  }
  best.duration_ms = probes_to_ms(best.measurements);
  return best;
}

SweepResult BeamTrainer::failover(const channel::BeamGrid& grid,
                                  const phy::PhySampler& sampler,
                                  util::Rng& rng, array::BeamId primary_tx,
                                  int min_sector_gap) const {
  util::KeyedNormals jitter(rng.raw());
  SweepResult best;
  best.snr_db = -1e9;
  best.rx_beam = 0;
  for (array::BeamId tb = 0; tb < grid.num_tx_beams(); ++tb) {
    if (std::abs(tb - primary_tx) < min_sector_gap) continue;
    for (array::BeamId rb = 0; rb < grid.num_rx_beams(); ++rb) {
      const double snr = sampler.measure_snr_db(grid, tb, rb, jitter);
      ++best.measurements;
      if (snr > best.snr_db) {
        best.snr_db = snr;
        best.tx_beam = tb;
        best.rx_beam = rb;
      }
    }
  }
  best.duration_ms = probes_to_ms(best.measurements);
  return best;
}

}  // namespace libra::mac
