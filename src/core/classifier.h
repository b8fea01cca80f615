// LiBRA's learned decision core (Sec. 7).
//
// A 3-class random forest (BA / RA / No-Adaptation) trained offline on
// labeled PHY-metric deltas decides, every other frame, whether adaptation
// is needed and which mechanism to trigger. When the Block ACK is missing
// the Tx has no fresh PHY metrics, so a rule distilled from the training
// data applies instead: with the current MCS below 6 BA is the right choice
// 92% of the time, so trigger BA; at MCS >= 6 the classes are balanced, so
// the choice follows the BA overhead (BA first when it is cheap).
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "ml/random_forest.h"
#include "trace/dataset.h"

namespace libra::core {

class DecisionBackend;  // core/decision_backend.h

// What classify()/classify_batch() do with a feature row containing NaN or
// Inf (e.g. a poisoned PHY observation that slipped past the controller's
// usability checks). kReject throws std::invalid_argument naming the row;
// kFallbackNA demotes the row to a No-Adaptation verdict without touching
// the forest (and without consuming window-noise draws for that row).
enum class NonFiniteFeaturePolicy { kReject, kFallbackNA };

// Observation-window noise on the noise-level feature (dB sigma).
inline constexpr double kWindowNoiseJitterDb = 1.06;

struct LibraClassifierConfig {
  // forest.num_threads governs training/batch-inference parallelism:
  // 0 = hardware_concurrency(), 1 = serial legacy behavior. The trained
  // model is bit-identical for any setting (per-tree Rng streams).
  ml::RandomForestConfig forest{};
  // Missing-ACK rule (Sec. 7, issue 3).
  phy::McsIndex no_ack_mcs_threshold = 6;
  double no_ack_ba_overhead_threshold_ms = 10.0;
  // Observation-window feature noise: LiBRA decides on 40 ms windows, which
  // are noisier than the 1 s training traces (Sec. 7, issue 2). Sigmas are
  // the per-frame jitters scaled by 1/sqrt(window frames); the noise-level
  // sigma is kWindowNoiseJitterDb.
  double window_snr_jitter_db = 0.28;
  double window_cdr_jitter = 0.011;
  // Confidence gate: adaptation (BA/RA) verdicts with a vote fraction below
  // this are demoted to No-Adaptation -- a misprediction costs a sweep or a
  // rate search, doing nothing costs one more observation window. 0
  // disables the gate (the paper's plain arg-max behavior).
  double min_confidence = 0.0;
  // Policy for NaN/Inf feature rows (see NonFiniteFeaturePolicy). The
  // default is to reject loudly: a non-finite feature reaching inference is
  // a caller bug unless the caller opted into graceful degradation.
  NonFiniteFeaturePolicy non_finite_policy = NonFiniteFeaturePolicy::kReject;
  // Where vote fractions are computed (core/decision_backend.h). Null (the
  // default) serves through this classifier's own forest -- exactly the
  // pre-backend behavior; a remote backend ships the jittered rows to an
  // inference daemon instead. Non-owning; jitter/filtering/gating always
  // stay on this side, so a loopback remote backend serving the same forest
  // is bit-identical to null. On BackendOutageError callers substitute
  // DecisionRequest::outage_fallback (degradation-ladder rung 2).
  DecisionBackend* backend = nullptr;
};

class LibraClassifier {
 public:
  // Validates the config up front (jitter sigmas >= 0, min_confidence
  // finite and >= 0, thresholds finite) and throws std::invalid_argument --
  // callers
  // like OnlineLibra construct once and retrain many times, so a bad knob
  // must fail at construction, not on the Nth update.
  explicit LibraClassifier(LibraClassifierConfig cfg = {});

  // Train the 3-class model on the (augmented) training dataset. Labels the
  // records (Dataset::labeled3) and forwards to train_labeled().
  void train(const trace::Dataset& dataset, const trace::GroundTruthConfig& gt,
             util::Rng& rng);
  // Fit directly on pre-labeled feature rows -- the single fit path shared
  // by train(), OnlineLibra's sliding-window retrain, and the fleet
  // trainer's candidate fits (core/trainer.h). Freezes the forest into its
  // compiled flat-arena form (ml/compiled_forest.h), whose verdicts are
  // bit-identical to the interpreted pointer walk. Throws
  // std::invalid_argument on an empty set, a row width other than
  // FeatureVector::kDim, or an out-of-range label.
  void train_labeled(const ml::DataSet& rows, util::Rng& rng);

  // Classify an observation-window feature vector (BA / RA / NA). Window
  // noise is added internally to model the short observation window.
  trace::Action classify(const trace::FeatureVector& features,
                         util::Rng& rng) const;

  // Batched classification for fleet serving: row i draws its
  // observation-window jitter from rngs[i] (each link's own stream, in row
  // order), then every row rides one RandomForest::vote_fractions_batch
  // call on the forest's thread pool. Per-row min_confidence gating applies
  // exactly as in classify(); verdicts are bit-identical to N independent
  // classify() calls consuming the same per-link streams.
  std::vector<trace::Action> classify_batch(
      std::span<const trace::FeatureVector> features,
      std::span<util::Rng* const> rngs) const;
  // Same, with an explicit backend overriding cfg_.backend (null = serve
  // through the classifier's own forest). The fleet engine uses this for
  // FleetConfig::backend. Throws BackendOutageError when the backend
  // cannot answer -- after the per-row jitter draws have been consumed, so
  // a retried frame replays deterministically.
  std::vector<trace::Action> classify_batch(
      std::span<const trace::FeatureVector> features,
      std::span<util::Rng* const> rngs, DecisionBackend* backend) const;

  // The missing-ACK fallback rule.
  trace::Action no_ack_action(phy::McsIndex current_mcs,
                              double ba_overhead_ms) const;

  bool trained() const { return trained_; }
  const ml::RandomForest& forest() const { return forest_; }

  // Swap the decision backend after construction (e.g. attach an
  // rpc::RemoteBackend once the daemon address is known). Non-owning;
  // nullptr restores in-process serving.
  void set_backend(DecisionBackend* backend) { cfg_.backend = backend; }
  DecisionBackend* backend() const { return cfg_.backend; }

  // Share an external worker pool for (re)training instead of the forest's
  // own lazily created one (e.g. one pool across many live sessions).
  void set_thread_pool(util::ThreadPool* pool) {
    forest_.set_thread_pool(pool);
  }

  static ml::Label to_label(trace::Action a);
  static trace::Action to_action(ml::Label l);

 private:
  // Jitter the window-sensitive features in place from `rng` (3 draws).
  trace::FeatureVector add_window_noise(const trace::FeatureVector& features,
                                        util::Rng& rng) const;
  // Arg-max + confidence gate over per-class vote fractions; the single
  // verdict path shared by classify() and classify_batch().
  trace::Action verdict_from_votes(std::span<const double> votes) const;

  LibraClassifierConfig cfg_;
  ml::RandomForest forest_;
  bool trained_ = false;
};

}  // namespace libra::core
