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
//
// Lazy PDP. observe_scalars() makes the four draws and hands back the tap
// key in a PdpTicket instead of the taps; materialize() later synthesizes
// the PDP, ToF and CSI from (link, beams, tap key). As long as the link
// state has not changed in between, the result is bit-identical to what
// observe() would have returned, and no link-stream draw moves: the taps
// never touched the link stream.
#pragma once

#include <cstdint>
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

// What materialize() needs to synthesize a scalar observation's PDP, ToF
// and CSI: the beam pair it was taken through and its tap key.
struct PdpTicket {
  array::BeamId tx_beam = 0;
  array::BeamId rx_beam = 0;
  std::uint64_t tap_key = 0;
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

// An observation whose PDP, ToF and CSI are not synthesized yet: `obs`
// holds observe()'s scalars (SNR, noise, CDR, throughput, MCS) with an
// empty PDP and CSI, and `ticket` is what materializes them.
struct ScalarObservation {
  PhyObservation obs;
  PdpTicket ticket;
  ChannelSnr channel_snr;  // the pass's jitter-free SNRs
};

struct SamplerConfig {
  double snr_jitter_db = 0.4;      // trace-average SNR estimation error
  double noise_jitter_db = 1.5;    // X60 noise readings span a wide range
                                   // even without interference (Sec. 6.2)
  double pdp_tap_jitter = 0.08;    // multiplicative per-tap jitter (sigma)
  double cdr_jitter = 0.015;       // residual frame-level CDR variation
};

class PhySampler {
 public:
  PhySampler(const ErrorModel* error_model, SamplerConfig cfg = {});

  // Full observation of the link through a beam pair at an MCS.
  PhyObservation observe(const channel::Link& link, array::BeamId tx_beam,
                         array::BeamId rx_beam, McsIndex mcs,
                         util::Rng& rng) const;

  // observe() with the PDP, ToF and CSI deferred: bit-identical scalars
  // and channel SNRs, the same link-stream draws, and the ticket that
  // materialize() turns into the rest.
  ScalarObservation observe_scalars(const channel::Link& link,
                                    array::BeamId tx_beam,
                                    array::BeamId rx_beam, McsIndex mcs,
                                    util::Rng& rng) const;

  // Synthesize the PDP, ToF and CSI of the observation `ticket` came from
  // into `obs`, on the link state observe_scalars() saw. Draws nothing from
  // any link stream; counts one "phy.pdp_materialized".
  void materialize(const channel::Link& link, const PdpTicket& ticket,
                   PhyObservation& obs) const;

  // The same observation without the PDP, ToF and CSI: bit-identical
  // scalars and the same link-stream draws as observe().
  RateObservation observe_rate(const channel::Link& link,
                               array::BeamId tx_beam, array::BeamId rx_beam,
                               McsIndex mcs, util::Rng& rng) const;

  // Quick SNR-only measurement: the duty-averaged SNR plus a gaussian
  // jitter drawn from `rng`.
  double measure_snr_db(const channel::Link& link, array::BeamId tx_beam,
                        array::BeamId rx_beam, util::Rng& rng) const;
  // A sector-sweep probe: the same duty-averaged SNR read from a grid built
  // on the link's current state, plus snr_jitter_db times the next variate
  // of the sweep's keyed stream. Draws nothing from any link stream.
  double measure_snr_db(const channel::BeamGrid& grid, array::BeamId tx_beam,
                        array::BeamId rx_beam,
                        util::KeyedNormals& jitter) const;

  const ErrorModel& error_model() const { return *error_model_; }
  const SamplerConfig& config() const { return cfg_; }

 private:
  struct RatePass;
  // The shared scalar half of every observation, from the pass's received
  // power and the Rx beam's effective noise floor: SNR, noise, CDR and
  // throughput, and the four link-stream draws of the draw contract.
  RatePass rate_pass(const channel::Link& link, double rx_dbm,
                     double jam_floor_dbm, McsIndex mcs,
                     util::Rng& rng) const;
  // The one PDP synthesis, shared by observe() and materialize(). The first
  // half walks the link's paths once, accumulating each path's power into
  // its tap over the detection floor; it returns the path-order power sum
  // (mW), which is the sum Link::rx_power_dbm takes. The second half applies
  // the keyed tap jitter, then derives the ToF and the CSI.
  double pdp_taps(const channel::Link& link, array::BeamId tx_beam,
                  array::BeamId rx_beam, const PdpConfig& pdp_cfg,
                  std::vector<double>& pdp) const;
  void finish_pdp(std::uint64_t tap_key, const PdpConfig& pdp_cfg,
                  PhyObservation& obs) const;
  // The PDP config whose per-tap floor sits 6 dB under the Rx beam's
  // effective noise floor.
  PdpConfig detection_config(double jam_floor_dbm) const;

  const ErrorModel* error_model_;  // non-owning
  SamplerConfig cfg_;
};

}  // namespace libra::phy
