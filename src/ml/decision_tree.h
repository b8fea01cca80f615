// CART decision tree (Sec. 6.2): axis-aligned binary splits chosen by Gini
// impurity or entropy, with a maximum-depth cap to control overfitting (the
// paper limits tree depth for both DT and RF).
#pragma once

#include <memory>
#include <vector>

#include "ml/data.h"

namespace libra::ml {

enum class Impurity { kGini, kEntropy };

// A node with fewer samples than this becomes a leaf.
inline constexpr int kMinSamplesSplit = 2;

struct DecisionTreeConfig {
  Impurity impurity = Impurity::kGini;
  int max_depth = 8;
  // When positive, consider only this many randomly chosen features per
  // split (used by the random forest); 0 = all features.
  int max_features = 0;
};

class DecisionTree : public Classifier {
 public:
  explicit DecisionTree(DecisionTreeConfig cfg = {});

  void fit(const DataSet& train, util::Rng& rng) override;
  Label predict(std::span<const double> features) const override;

  // Impurity-decrease importance per feature, normalized to sum to 1
  // ("Gini importance", Table 3). Empty before fit().
  const std::vector<double>& feature_importances() const {
    return importances_;
  }
  // Raw (unnormalized) importance accumulator; used by the forest to
  // aggregate before normalizing.
  const std::vector<double>& raw_importances() const {
    return raw_importances_;
  }

  int depth() const;
  int node_count() const { return static_cast<int>(nodes_.size()); }

  // Flat node layout, exposed for model serialization (ml/model_io.h).
  struct Node {
    int feature = -1;        // -1 = leaf
    double threshold = 0.0;  // go left when x[feature] <= threshold
    int left = -1;
    int right = -1;
    Label label = 0;         // majority label (leaves)
  };
  const std::vector<Node>& nodes() const { return nodes_; }
  int num_classes() const { return num_classes_; }
  // Restore a tree from serialized state (replaces any fit model).
  // Validates the untrusted input -- child indices in range, no cycles or
  // shared/orphaned subtrees, labels within [0, num_classes), split
  // features within the importance vector -- and throws
  // std::invalid_argument on any violation.
  void import_model(std::vector<Node> nodes, std::vector<double> importances,
                    int num_classes);

 private:
  int build(const DataSet& data, std::vector<std::size_t>& indices, int depth,
            util::Rng& rng);

  DecisionTreeConfig cfg_;
  std::vector<Node> nodes_;
  std::vector<double> importances_;
  std::vector<double> raw_importances_;
  int num_classes_ = 2;
};

}  // namespace libra::ml
