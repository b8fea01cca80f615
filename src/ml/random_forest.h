// Random forest (Sec. 6.2): bagged CART trees with per-split feature
// subsampling and majority voting. This is the model LiBRA deploys (98%
// 5-fold accuracy, 88% cross-building). Gini importances (Table 3) are the
// normalized average of the per-tree impurity decreases.
//
// Training is parallel across trees: fit() splits one deterministic child
// Rng stream per tree off the caller's stream *before* dispatching, so a
// forest trained with num_threads = N is bit-identical to num_threads = 1
// for the same seed (the schedule never touches the randomness).
#pragma once

#include <memory>
#include <vector>

#include "ml/compiled_forest.h"
#include "ml/decision_tree.h"
#include "util/thread_pool.h"

namespace libra::ml {

struct RandomForestConfig {
  int num_trees = 60;
  DecisionTreeConfig tree{};  // max_features is overridden below when 0
  // Fraction of the training set bootstrapped per tree.
  double bootstrap_fraction = 1.0;
  // Worker threads for fit()/batched inference: 0 = hardware_concurrency(),
  // 1 = serial legacy behavior (no pool is ever created).
  int num_threads = 0;
};

class RandomForest : public Classifier {
 public:
  explicit RandomForest(RandomForestConfig cfg = {});

  void fit(const DataSet& train, util::Rng& rng) override;
  // Throws std::logic_error on an unfitted (empty) forest instead of
  // silently voting label 0 out of thin air.
  Label predict(std::span<const double> features) const override;

  // Per-class vote fractions (sum to 1); the winning class's fraction is a
  // calibrated-enough confidence for gating decisions. An empty forest
  // yields all-zero fractions.
  std::vector<double> vote_fractions(std::span<const double> features) const;

  // Batched inference over every row, parallel across rows on the forest's
  // pool. Row order (and therefore the result) is independent of threading.
  std::vector<Label> predict_batch(const DataSet& data) const;
  std::vector<std::vector<double>> vote_fractions_batch(
      const DataSet& data) const;

  // Freeze the fitted forest into a flat-arena CompiledForest (see
  // ml/compiled_forest.h) and dispatch every subsequent predict /
  // vote_fractions / *_batch call through it. The compiled path is
  // bit-identical to the pointer walk. fit() and import_model() drop the
  // compiled form (it would be stale). Throws std::logic_error when
  // unfitted. Returns the compiled forest, which copies of this forest
  // share.
  const CompiledForest& compile();
  // The active compiled form, or nullptr when serving interpreted.
  const CompiledForest* compiled() const { return compiled_.get(); }

  // Share an external pool (e.g. the cross-validation pool) instead of the
  // lazily created owned one; pass nullptr to revert. Not owned.
  void set_thread_pool(util::ThreadPool* pool) { external_pool_ = pool; }

  const std::vector<double>& feature_importances() const {
    return importances_;
  }
  const std::vector<DecisionTree>& trees() const { return trees_; }
  int num_classes() const { return num_classes_; }
  // Restore a forest from serialized state (replaces any fit model, drops
  // any compiled form). Validates the deserialized state -- every tree's
  // classes within num_classes, importance sizes consistent across trees
  // and the forest -- and throws std::invalid_argument instead of trusting
  // the file.
  void import_model(std::vector<DecisionTree> trees,
                    std::vector<double> importances, int num_classes);

 private:
  util::ThreadPool* pool() const;

  RandomForestConfig cfg_;
  std::vector<DecisionTree> trees_;
  std::vector<double> importances_;
  int num_classes_ = 2;
  util::ThreadPool* external_pool_ = nullptr;
  // shared_ptr keeps the forest copyable (copies share the workers).
  mutable std::shared_ptr<util::ThreadPool> owned_pool_;
  // Frozen flat-arena form; shared by copies (immutable once built).
  std::shared_ptr<const CompiledForest> compiled_;
};

}  // namespace libra::ml
