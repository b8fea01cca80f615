#include "core/controller.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <stdexcept>
#include <string>

#include "core/decision_backend.h"
#include "obs/metrics.h"
#include "trace/ground_truth.h"

namespace libra::core {

namespace {
// Decision-mix telemetry: how often each verdict fires across every
// controller, the missing-ACK fallback rate, and the degradation-ladder
// rungs (rung 2 = inference unavailable/stale, COTS heuristic substituted;
// rung 3 = observation unusable, last safe MCS held).
struct VerdictCounters {
  obs::Counter& ba;
  obs::Counter& ra;
  obs::Counter& na;
  obs::Counter& no_ack_fallbacks;
  obs::Counter& degraded_decisions;
  obs::Counter& held_decisions;
};
VerdictCounters& verdict_counters() {
  obs::Registry& r = obs::Registry::global();
  static VerdictCounters c{r.counter("controller.verdict.ba"),
                           r.counter("controller.verdict.ra"),
                           r.counter("controller.verdict.na"),
                           r.counter("controller.no_ack_fallbacks"),
                           r.counter("controller.degraded_decisions"),
                           r.counter("controller.held_decisions")};
  return c;
}

// A PHY observation the decision logic can act on: all scalar metrics
// finite. Garbage-PHY faults (and any desynchronized baseband) fail this
// and land on the hold-last-safe-MCS rung instead of propagating NaN into
// triggers, features, or the upward prober.
bool observation_usable(const phy::PhyObservation& obs) {
  return std::isfinite(obs.snr_db) && std::isfinite(obs.noise_dbm) &&
         std::isfinite(obs.cdr) && std::isfinite(obs.throughput_mbps);
}

// MCS occupancy: frames transmitted at each MCS index (one counter per
// MCS, pre-registered so the per-frame path never builds a name).
obs::Counter& mcs_occupancy_counter(phy::McsIndex mcs) {
  constexpr int kMaxTracked = 16;
  static const std::array<obs::Counter*, kMaxTracked> counters = [] {
    std::array<obs::Counter*, kMaxTracked> a{};
    for (int m = 0; m < kMaxTracked; ++m) {
      a[static_cast<std::size_t>(m)] = &obs::Registry::global().counter(
          "controller.mcs_occupancy." + std::to_string(m));
    }
    return a;
  }();
  const int idx = std::clamp(static_cast<int>(mcs), 0, kMaxTracked - 1);
  return *counters[static_cast<std::size_t>(idx)];
}
}  // namespace

LinkController::LinkController(channel::Link* link,
                               const phy::ErrorModel* error_model,
                               ControllerConfig cfg)
    : link_(link),
      error_model_(error_model),
      cfg_(cfg),
      sampler_(error_model),
      ack_model_(error_model),
      up_prober_(0) {
  if (!link_ || !error_model_) throw std::invalid_argument("null dependency");
  if (!(cfg_.fat_ms > 0.0)) {
    throw std::invalid_argument("ControllerConfig: fat_ms must be > 0, got " +
                                std::to_string(cfg_.fat_ms));
  }
}

void LinkController::run_ba(util::Rng& rng) {
  const mac::SweepResult sweep = trainer_.exhaustive(*link_, sampler_, rng);
  // An injected beam-training failure charges the sweep airtime but its
  // responses are unusable: the link keeps the old pair.
  const bool sweep_failed =
      faults_ != nullptr && faults_->active() &&
      faults_->query(faults::FaultKind::kBeamTrainingFailure, t_ms_).fired;
  if (!sweep_failed) {
    tx_beam_ = sweep.tx_beam;
    rx_beam_ = sweep.rx_beam;
  }
  t_ms_ += kBaOverheadMs;
}

bool LinkController::classifier_faulted(double t_ms) {
  return faults_ != nullptr && faults_->active() &&
         faults_->query(faults::FaultKind::kClassifierOutage, t_ms).fired;
}

trace::Action LinkController::missing_ack_fallback_action(
    const phy::PhyObservation& obs) const {
  return (persistent_ack_loss() ||
          !trace::is_working(obs.cdr, obs.throughput_mbps))
             ? trace::Action::kRA
             : trace::Action::kNA;
}

void LinkController::plan_missing_ack_fallback(DecisionRequest& request) const {
  const trace::Action fallback = missing_ack_fallback_action(request.obs);
  if (fallback != trace::Action::kNA) request.precomputed = fallback;
}

void LinkController::begin_ra_walk() {
  walking_ = true;
  walk_best_mcs_ = -1;
  walk_best_tput_ = -1.0;
  // The repair starts fresh: stale loss history must not re-trigger before
  // the walk has had a chance to work.
  ack_loss_ewma_ = 0.0;
}

void LinkController::start(util::Rng& rng) {
  run_ba(rng);
  // Find the best working MCS with a quick downward walk from the top.
  const int top = error_model_->table().max_mcs();
  mcs_ = top;
  double best_tput = -1.0;
  phy::McsIndex best = 0;
  for (phy::McsIndex m = top; m >= 0; --m) {
    const phy::RateObservation obs =
        sampler_.observe_rate(*link_, tx_beam_, rx_beam_, m, rng);
    if (trace::is_working(obs.cdr, obs.throughput_mbps) &&
        obs.throughput_mbps > best_tput) {
      best_tput = obs.throughput_mbps;
      best = m;
    }
    if (best_tput > 0 && obs.throughput_mbps < best_tput) break;
  }
  mcs_ = best;
  up_prober_.reset(mcs_);
  const phy::PhyObservation obs =
      sampler_.observe(*link_, tx_beam_, rx_beam_, mcs_, rng);
  rebaseline(obs);
}

void LinkController::rebaseline(const phy::PhyObservation& obs) {
  baseline_ = obs;
}

void LinkController::materialize_pdp(DecisionRequest& request) const {
  if (!request.pending_pdp) return;
  sampler_.materialize(*link_, *request.pending_pdp, request.obs);
  request.pending_pdp.reset();
}

trace::FeatureVector LinkController::features_against_baseline(
    const DecisionRequest& request) const {
  if (request.pending_pdp) {
    throw std::logic_error(
        "features_against_baseline: the observation's PDP is not "
        "materialized");
  }
  if (!baseline_) return {};
  return trace::feature_row(*baseline_, request.obs, request.obs.cdr, mcs_);
}

DecisionRequest LinkController::observe(util::Rng& rng) {
  DecisionRequest request;
  FrameReport& report = request.report;
  report.t_ms = t_ms_;
  report.tx_beam = tx_beam_;
  report.rx_beam = rx_beam_;

  // Choose this frame's MCS: walking probes downward; otherwise the upward
  // prober may spend the frame probing one MCS higher.
  const phy::McsIndex frame_mcs = mcs_;
  // Window-averaged observation (what the classifier and the settle logic
  // consume). Only its scalars for now: the PDP, ToF and CSI wait for a
  // reader (LiBRA's features, the fault seam), which materializes them
  // within this call, on this link state.
  phy::ScalarObservation scalar =
      sampler_.observe_scalars(*link_, tx_beam_, rx_beam_, frame_mcs, rng);
  request.obs = std::move(scalar.obs);
  request.pending_pdp = scalar.ticket;
  const phy::ChannelSnr& channel_snr = scalar.channel_snr;
  const phy::PhyObservation& obs = request.obs;

  // This specific frame either collides with an interference burst or not;
  // its ACK and goodput follow the instantaneous SINR, not the average.
  const double duty = link_->interferer_duty();
  const bool jammed = duty > 0.0 && rng.bernoulli(duty);
  const double frame_snr =
      jammed ? channel_snr.jammed_db : channel_snr.clean_db;

  report.mcs = frame_mcs;
  mcs_occupancy_counter(frame_mcs).inc();
  report.ack = ack_model_.ack_received(frame_mcs, frame_snr, rng);
  report.goodput_mbps =
      report.ack ? error_model_->expected_throughput_mbps(frame_mcs, frame_snr)
                 : 0.0;
  double frame_ms = cfg_.fat_ms;
  // Fault seam. Every link-stream draw for this frame's mechanics has
  // happened, so injected faults (drawn from the link's separate fault
  // stream) only change what the controller *sees* -- the ACK indicator
  // feeding the loss EWMA, the PHY observation feeding triggers and
  // features, and the frame clock -- never what the link draws.
  if (faults_ != nullptr && faults_->active()) {
    using faults::FaultKind;
    const double t = report.t_ms;
    // Stale, garbage and truncated PHY faults, and the last clean
    // observation they replay, all act on a full observation.
    materialize_pdp(request);
    if (faults_->query(FaultKind::kDropAck, t).fired) {
      report.ack = false;  // the BA never arrived; the aggregate is lost
      report.goodput_mbps = 0.0;
    } else if (faults_->query(FaultKind::kDuplicateAck, t).fired) {
      report.ack = true;  // ghost ACK: a stale BA can mask a dead frame
    }
    if (faults_->query(FaultKind::kStalePhy, t).fired) {
      if (last_clean_obs_) request.obs = *last_clean_obs_;
    } else if (faults_->query(FaultKind::kGarbagePhy, t).fired) {
      faults::corrupt_observation(request.obs);
    } else {
      const faults::FaultInjector::Verdict truncated =
          faults_->query(FaultKind::kTruncateFeatures, t);
      if (truncated.fired) {
        faults::truncate_observation(request.obs, truncated.magnitude);
      } else {
        last_clean_obs_ = request.obs;
      }
    }
    const faults::FaultInjector::Verdict skew =
        faults_->query(FaultKind::kClockSkew, t);
    if (skew.fired) frame_ms = cfg_.fat_ms * (1.0 + skew.magnitude);
  }
  report.duration_ms = frame_ms;
  t_ms_ += frame_ms;
  ack_loss_ewma_ = (1.0 - kAckLossEwmaWeight) * ack_loss_ewma_ +
                   kAckLossEwmaWeight * (report.ack ? 0.0 : 1.0);

  if (walking_) {
    // Evaluate the probe we just sent; the walk consumes the frame, no
    // policy decision is due.
    if (trace::is_working(obs.cdr, obs.throughput_mbps) &&
        obs.throughput_mbps > walk_best_tput_) {
      walk_best_tput_ = obs.throughput_mbps;
      walk_best_mcs_ = frame_mcs;
    }
    const bool passed_peak =
        walk_best_mcs_ >= 0 && obs.throughput_mbps < walk_best_tput_;
    if (passed_peak || mcs_ == 0) {
      walking_ = false;
      if (walk_best_mcs_ >= 0) {
        mcs_ = walk_best_mcs_;
        up_prober_.reset(mcs_);
        rebaseline(sampler_.observe(*link_, tx_beam_, rx_beam_, mcs_, rng));
        walked_through_ba_ = false;
      } else if (!walked_through_ba_) {
        // Nothing works on this pair: BA, then a second walk (Algorithm 1).
        run_ba(rng);
        walked_through_ba_ = true;
        mcs_ = error_model_->table().max_mcs();
        begin_ra_walk();
      } else {
        // Both walks failed: camp on MCS 0 and keep trying.
        walked_through_ba_ = false;
        mcs_ = 0;
        up_prober_.reset(0);
      }
    } else {
      --mcs_;  // next probe one MCS lower
    }
    return request;
  }

  // Steady state: ask the policy what this frame's verdict needs.
  request.decision_due = true;
  // Degradation ladder rung 3: the observation is unusable and ACKs still
  // flow (persistent loss has its own obs-free rule in every policy) --
  // hold the last safe MCS. The verdict stays kNA and apply() skips the
  // upward prober so the garbage never reaches it.
  if (!observation_usable(request.obs) && !persistent_ack_loss()) {
    verdict_counters().held_decisions.inc();
    request.hold_last_mcs = true;
    return request;
  }
  plan(request, rng);
  return request;
}

trace::Action LinkController::decide(const DecisionRequest& request,
                                     util::Rng& rng) const {
  if (request.needs_inference()) {
    try {
      return request.classifier->classify(request.features, rng);
    } catch (const BackendOutageError&) {
      // Rung 2 at decide time: the decision backend died mid-request
      // (timeout, disconnect, malformed reply). The jitter draws are spent
      // either way, so substituting the plan-time fallback keeps the run
      // deterministic -- and the link degraded instead of crashed.
      verdict_counters().degraded_decisions.inc();
      outage_fallback_counter().inc();
      return request.outage_fallback;
    }
  }
  return request.resolved_without_inference();
}

void LinkController::note_verdict(trace::Action, const DecisionRequest&) {}

void LinkController::apply(trace::Action verdict, DecisionRequest& request,
                           util::Rng& rng) {
  if (!request.decision_due) return;  // the walk already consumed the frame
  note_verdict(verdict, request);
  request.report.action = verdict;
  VerdictCounters& counters = verdict_counters();
  switch (verdict) {
    case trace::Action::kBA:
      counters.ba.inc();
      run_ba(rng);
      begin_ra_walk();
      break;
    case trace::Action::kRA:
      counters.ra.inc();
      begin_ra_walk();
      break;
    case trace::Action::kNA: {
      counters.na.inc();
      // Rung 3 of the degradation ladder: the observation was unusable, so
      // camp on the current (last safe) MCS -- probing on garbage metrics
      // could walk the link off a working rate.
      if (request.hold_last_mcs) break;
      // Upward probing (shared by all policies, Sec. 8.1). To keep one
      // observation per frame, the prober's verdict applies to the next
      // frame's MCS.
      trace::PairTrace view;
      view.throughput_mbps.assign(
          static_cast<std::size_t>(error_model_->table().size()), 0.0);
      view.cdr.assign(view.throughput_mbps.size(), 0.0);
      // Fill only the two entries the prober inspects, from live estimates.
      const auto cur = static_cast<std::size_t>(mcs_);
      view.cdr[cur] = request.obs.cdr;
      view.throughput_mbps[cur] = request.obs.throughput_mbps;
      if (mcs_ < error_model_->table().max_mcs()) {
        const phy::RateObservation up = sampler_.observe_rate(
            *link_, tx_beam_, rx_beam_, mcs_ + 1, rng);
        view.cdr[cur + 1] = up.cdr;
        view.throughput_mbps[cur + 1] = up.throughput_mbps;
      }
      up_prober_.on_frame(view);
      mcs_ = up_prober_.current();
      break;
    }
  }
}

// ---------- LiBRA ----------

LibraController::LibraController(channel::Link* link,
                                 const phy::ErrorModel* error_model,
                                 const LibraClassifier* classifier,
                                 ControllerConfig cfg)
    : LinkController(link, error_model, cfg), classifier_(classifier) {
  if (!classifier_) throw std::invalid_argument("null classifier");
}

void LibraController::plan(DecisionRequest& request, util::Rng& rng) {
  (void)rng;
  // Degradation ladder rung 2: the classifier is unavailable -- an injected
  // outage/timeout window, or (remote backends only) a transport fault /
  // failed health probe at the client seam -- so degrade to the COTS
  // missing-ACK heuristic wholesale. Checked before any cadence state so
  // that under a full outage this controller is frame-for-frame the
  // RaFirstController rule (tests/faults_test.cpp and tests/rpc_test.cpp
  // prove bit-identity for both flavors).
  if (classifier_faulted(request.report.t_ms) ||
      backend_unreachable(request.report.t_ms)) {
    verdict_counters().degraded_decisions.inc();
    plan_missing_ack_fallback(request);
    return;
  }
  if (persistent_ack_loss()) {
    // Missing ACKs: no fresh PHY metrics, the distilled rule fires.
    verdict_counters().no_ack_fallbacks.inc();
    holdoff_frames_ = kPostAdaptHoldoffFrames;
    request.precomputed = classifier_->no_ack_action(mcs_, kBaOverheadMs);
    return;
  }
  if (holdoff_frames_ > 0) {
    --holdoff_frames_;
    return;  // precomputed stays kNA
  }
  if (++frames_since_decision_ < kDecisionPeriodFrames) {
    return;
  }
  frames_since_decision_ = 0;
  // Rung 2 again, for stale inputs: a non-finite feature (poisoned PDP/CSI
  // taps can slip past the scalar usability check) must never reach the
  // forest -- classify{,_batch} would reject it. Fall back instead.
  materialize_pdp(request);
  const trace::FeatureVector features = features_against_baseline(request);
  for (const double v : features.v) {
    if (!std::isfinite(v)) {
      verdict_counters().degraded_decisions.inc();
      plan_missing_ack_fallback(request);
      return;
    }
  }
  request.classifier = classifier_;
  request.features = features;
  // Freeze the rung-2 verdict this frame falls back to if the backend
  // fails between here and the (possibly off-thread, batched) decide.
  request.outage_fallback = missing_ack_fallback_action(request.obs);
}

bool LibraController::backend_unreachable(double t_ms) {
  DecisionBackend* backend = classifier_->backend();
  if (backend == nullptr || backend->local()) return false;
  // Injected transport faults fire at this seam -- the moment the
  // controller would commit to a remote round trip. Checked before the
  // health probe, and a 100%-probability window consumes no draws, so a
  // full kRpcDrop window is frame-identical to a full kClassifierOutage.
  if (faults_ != nullptr && faults_->active()) {
    if (faults_->query(faults::FaultKind::kRpcDrop, t_ms).fired) {
      outage_fallback_counter().inc();
      return true;
    }
    const faults::FaultInjector::Verdict delayed =
        faults_->query(faults::FaultKind::kRpcDelay, t_ms);
    if (delayed.fired && delayed.magnitude >= backend->deadline_ms()) {
      outage_fallback_counter().inc();
      return true;
    }
  }
  if (!backend->available()) {
    outage_fallback_counter().inc();
    return true;
  }
  return false;
}

void LibraController::note_verdict(trace::Action verdict,
                                   const DecisionRequest& request) {
  if (request.needs_inference() && verdict != trace::Action::kNA) {
    holdoff_frames_ = kPostAdaptHoldoffFrames;
  }
}

// ---------- heuristics ----------

void RaFirstController::plan(DecisionRequest& request, util::Rng&) {
  // Trigger when the current MCS stops being a working MCS (Sec. 8.1);
  // Algorithm: RA first, BA happens automatically if the walk fails. This
  // exact rule doubles as rung 2 of the degradation ladder, which is why
  // it lives in the shared base helper.
  plan_missing_ack_fallback(request);
}

void BaFirstController::plan(DecisionRequest& request, util::Rng&) {
  if (persistent_ack_loss() ||
      !trace::is_working(request.obs.cdr, request.obs.throughput_mbps)) {
    request.precomputed = trace::Action::kBA;
  }
}

}  // namespace libra::core
