// Layer probes: microseconds per call of the channel, env, phy, mac, util
// and trace entry points, measured on copies of sampled link states so the
// live links and their streams are never touched.
#pragma once

#include <optional>
#include <vector>

#include "array/codebook.h"
#include "channel/link.h"
#include "env/environment.h"
#include "phy/error_model.h"
#include "sim/fleet.h"
#include "trace/dataset.h"
#include "util/rng.h"
#include "common.h"

namespace perfbench {

// A detached copy of one link's state at one moment: geometry, blockers,
// interferer, fade, serving beam pair and MCS, and the link's stream.
struct ProbeState {
  env::Environment environment;
  geom::Vec2 ap;
  double ap_boresight_deg = 0.0;
  geom::Vec2 rx;
  double rx_boresight_deg = 0.0;
  std::optional<channel::Interferer> interferer;
  double fade_db = 0.0;
  array::BeamId tx_beam = 0;
  array::BeamId rx_beam = 0;
  phy::McsIndex mcs = 0;
  util::Rng rng{1};
};

ProbeState capture_state(const sim::FleetLink& member, const util::Rng& rng);

struct ProbeResults {
  std::size_t states = 0;
  double sweep_us = 0.0;         // mac::BeamTrainer::exhaustive
  double snr_us = 0.0;           // channel::Link::snr_clean_db
  double measure_snr_us = 0.0;   // phy::PhySampler::measure_snr_db
  double observe_us = 0.0;       // phy::PhySampler::observe
  double fft_us = 0.0;           // util::magnitude_spectrum, 256 points
  double refresh_us = 0.0;       // channel::Link::refresh
  double trace_us = 0.0;         // channel::PathTracer::trace
  double ack_us = 0.0;           // mac::AckModel::ack_received
};

ProbeResults run_probes(const std::vector<ProbeState>& states,
                        const phy::ErrorModel& error_model,
                        const array::Codebook& codebook);

// trace::extract_features over the collected dataset's records, us/call.
double probe_features_us(const trace::Dataset& dataset);

}  // namespace perfbench
