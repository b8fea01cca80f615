// PHY measurement sampler: produces the per-trace observation record that
// X60 logs for every frame (Sec. 5.1): SNR, noise level, PDP, CDR and MAC
// throughput, averaged over a trace, with realistic measurement noise.
//
// Draw contract. Every observation, full or rate-only, makes the same four
// draws on the caller's (link) stream, in this order: the SNR gaussian, the
// noise gaussian, one raw 64-bit engine output (the tap key), the CDR
// gaussian. The PDP's per-tap jitter comes from a util::KeyedNormals stream
// keyed by the tap key, never from the link stream, so skipping the taps
// (observe_rate) leaves every later link draw where it was.
#pragma once

#include <optional>
#include <vector>

#include "array/codebook.h"
#include "channel/beam_grid.h"
#include "channel/link.h"
#include "phy/error_model.h"
#include "phy/pdp.h"
#include "util/rng.h"

namespace libra::phy {

struct PhyObservation {
  double snr_db = 0.0;
  double noise_dbm = 0.0;                // measured noise level
  std::optional<double> tof_ns;          // nullopt = "infinity" (no signal)
  std::vector<double> pdp;               // linear mW per tap
  std::vector<double> csi;               // |FFT(pdp)|
  double cdr = 0.0;                      // at the observed MCS
  double throughput_mbps = 0.0;          // MAC throughput at the observed MCS
  McsIndex mcs = 0;
};

// The rate-only slice of an observation: what the MCS walk, the upward
// prober and the collector's per-MCS probes read. A type of its own so it
// can never stand in for a PhyObservation (no PDP, ToF or CSI to compare).
struct RateObservation {
  double snr_db = 0.0;
  double noise_dbm = 0.0;
  double cdr = 0.0;
  double throughput_mbps = 0.0;
  McsIndex mcs = 0;
};

// The jitter-free SNRs of an observation's own channel pass: between
// interferer bursts (clean) and during one (jammed). One frame's ACK and
// goodput follow one of them; they stay out of PhyObservation, which is what
// features, baselines and fault injection see.
struct ChannelSnr {
  double clean_db = 0.0;
  double jammed_db = 0.0;
};

struct SamplerConfig {
  double snr_jitter_db = 0.4;      // trace-average SNR estimation error
  double noise_jitter_db = 1.5;    // X60 noise readings span a wide range
                                   // even without interference (Sec. 6.2)
  double pdp_tap_jitter = 0.08;    // multiplicative per-tap jitter (sigma)
  double cdr_jitter = 0.015;       // residual frame-level CDR variation
  PdpConfig pdp;
};

class PhySampler {
 public:
  PhySampler(const ErrorModel* error_model, SamplerConfig cfg = {});

  // Full observation of the link through a beam pair at an MCS. When
  // `channel_snr` is non-null it receives the pass's jitter-free SNRs.
  PhyObservation observe(const channel::Link& link, array::BeamId tx_beam,
                         array::BeamId rx_beam, McsIndex mcs, util::Rng& rng,
                         ChannelSnr* channel_snr = nullptr) const;

  // The same observation without the PDP, ToF and CSI: bit-identical
  // scalars and the same link-stream draws as observe().
  RateObservation observe_rate(const channel::Link& link,
                               array::BeamId tx_beam, array::BeamId rx_beam,
                               McsIndex mcs, util::Rng& rng) const;

  // Quick SNR-only measurement, as used during a sector sweep.
  double measure_snr_db(const channel::Link& link, array::BeamId tx_beam,
                        array::BeamId rx_beam, util::Rng& rng) const;
  // The same measurement read from a grid built on the link's current
  // state: bit-identical value, identical Rng draws.
  double measure_snr_db(const channel::BeamGrid& grid, array::BeamId tx_beam,
                        array::BeamId rx_beam, util::Rng& rng) const;

  const ErrorModel& error_model() const { return *error_model_; }
  const SamplerConfig& config() const { return cfg_; }

 private:
  struct RatePass;
  // The shared scalar half of observe() and observe_rate(), from the pass's
  // received power: SNR, noise, CDR and throughput, and the four
  // link-stream draws of the draw contract.
  RatePass rate_pass(const channel::Link& link, double rx_dbm,
                     array::BeamId rx_beam, McsIndex mcs,
                     util::Rng& rng) const;

  const ErrorModel* error_model_;  // non-owning
  SamplerConfig cfg_;
};

}  // namespace libra::phy
