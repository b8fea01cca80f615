// Beam adaptation (BA) algorithms (Sec. 2):
//
//   exhaustive    - naive O(N^2): every Tx x Rx beam pair is measured. This
//                   is what the dataset collection uses to find the ground-
//                   truth best pair (Sec. 5.1).
//   sls_80211ad   - O(N): Tx sector sweep with quasi-omni reception, then Rx
//                   sweep with quasi-omni transmission (standard SLS).
//   sls_tx_only   - O(N)/2: COTS devices only train the Tx beam and always
//                   receive quasi-omni.
//
// Each returns the selected pair, its SNR, the number of probe measurements
// and the sweep airtime (per-probe time x probes).
//
// Every sweep reads its probes from a channel::BeamGrid built in per-thread
// scratch. A caller that probes the same channel state again (the
// collector's initial sweep and failover scan) builds its own grid and
// passes it to the grid overloads. Results are bit-identical to probing the
// Link pair by pair.
//
// Draw contract: every sweep, whatever its probe count, makes exactly one
// draw on the caller's (link) stream, a raw 64-bit key, and its probes take
// their jitter from a util::KeyedNormals stream keyed by it, in probe order.
#pragma once

#include "array/codebook.h"
#include "channel/beam_grid.h"
#include "channel/link.h"
#include "phy/sampler.h"
#include "util/rng.h"

namespace libra::mac {

struct SweepResult {
  array::BeamId tx_beam = 0;
  array::BeamId rx_beam = array::kQuasiOmni;
  double snr_db = 0.0;
  int measurements = 0;
  double duration_ms = 0.0;
};

// Airtime per probe (one SSW frame + turnaround). 802.11ad SSW frames are
// ~15 us plus SBIFS; X60 uses one 100 us slot per measurement.
inline constexpr double kProbeUs = 20.0;

class BeamTrainer {
 public:
  SweepResult exhaustive(const channel::Link& link,
                         const phy::PhySampler& sampler, util::Rng& rng) const;
  // Sweep a grid the caller built on the link's current state.
  SweepResult exhaustive(const channel::BeamGrid& grid,
                         const phy::PhySampler& sampler, util::Rng& rng) const;

  SweepResult sls_80211ad(const channel::Link& link,
                          const phy::PhySampler& sampler, util::Rng& rng) const;

  SweepResult sls_tx_only(const channel::Link& link,
                          const phy::PhySampler& sampler, util::Rng& rng) const;

  // Coarse-to-fine two-level search (overhead-reduction family of Sec. 2
  // [11, 28, 31, 43, 54, 57, 70]): probe every `stride`-th beam pair on a
  // coarse grid, then exhaustively refine within +-`radius` beams of the
  // coarse winner. With 25 beams, stride 5 and radius 2 this needs 5x5 +
  // 5x5 = 50 probes instead of 625 -- it can miss the optimum when the
  // coarse grid straddles a narrow feature, which the ba_algorithms bench
  // quantifies.
  SweepResult coarse_fine(const channel::Link& link,
                          const phy::PhySampler& sampler, util::Rng& rng,
                          int stride = 5, int radius = 2) const;

  // MOCA-style failover scan on a grid the caller built: the best pair,
  // probed exhaustively, whose Tx sector lies at least `min_sector_gap`
  // beams from `primary_tx`. With no eligible sector it returns pair (0, 0)
  // after zero probes.
  SweepResult failover(const channel::BeamGrid& grid,
                       const phy::PhySampler& sampler, util::Rng& rng,
                       array::BeamId primary_tx, int min_sector_gap) const;
};

}  // namespace libra::mac
