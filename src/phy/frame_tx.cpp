#include "phy/frame_tx.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace libra::phy {

FrameTransmitter::FrameTransmitter(const ErrorModel* error_model,
                                   FrameTxConfig cfg)
    : error_model_(error_model), cfg_(cfg) {
  if (!error_model_) throw std::invalid_argument("null error model");
}

int FrameTransmitter::sample_delivered(int n, double p, util::Rng& rng) const {
  if (p <= 0.0) return 0;
  if (p >= 1.0) return n;
  // Normal approximation to Binomial(n, p); n per slot is 92, n*p*(1-p) is
  // usually large enough, and the tails get clamped anyway.
  const double mean = n * p;
  const double stddev = std::sqrt(n * p * (1.0 - p));
  const int sample = static_cast<int>(std::lround(rng.gaussian(mean, stddev)));
  return std::clamp(sample, 0, n);
}

FrameResult FrameTransmitter::transmit(const channel::Link& link,
                                       array::BeamId tx_beam,
                                       array::BeamId rx_beam, McsIndex mcs,
                                       util::Rng& rng) const {
  FrameResult result;
  const int slots = cfg_.tdma.slots_per_frame;
  const int per_slot = cfg_.tdma.codewords_per_slot;
  result.codewords_sent = slots * per_slot;
  result.per_slot_delivered.assign(static_cast<std::size_t>(slots), 0);

  const double p_clean = error_model_->codeword_success_prob(
      mcs, link.snr_clean_db(tx_beam, rx_beam));
  const double p_jam =
      error_model_->codeword_success_prob(mcs, link.snr_db(tx_beam, rx_beam));
  const double duty = link.interferer_duty();

  // A CSMA burst occupies a contiguous run of slots with a random start.
  result.jammed_slots = static_cast<int>(std::lround(duty * slots));
  const int jam_start =
      result.jammed_slots > 0
          ? rng.uniform_int(0, slots - 1)
          : 0;

  for (int s = 0; s < slots; ++s) {
    const bool jammed =
        result.jammed_slots > 0 &&
        ((s - jam_start + slots) % slots) < result.jammed_slots;
    const double p = jammed ? p_jam : p_clean;
    const int delivered = sample_delivered(per_slot, p, rng);
    result.per_slot_delivered[static_cast<std::size_t>(s)] = delivered;
    result.codewords_delivered += delivered;
  }
  result.empirical_cdr =
      static_cast<double>(result.codewords_delivered) / result.codewords_sent;
  result.payload_bytes =
      static_cast<double>(result.codewords_delivered) *
      error_model_->table().entry(mcs).codeword_bytes *
      error_model_->config().framing_efficiency;

  // Block ACK: lost only if every subframe (a contiguous share of the
  // frame's codewords) fails; approximate with the empirical CDR.
  const double p_all_fail =
      std::pow(1.0 - result.empirical_cdr, cfg_.ack_subframes);
  result.block_ack = !rng.bernoulli(std::clamp(p_all_fail, 0.0, 1.0));
  return result;
}

}  // namespace libra::phy
