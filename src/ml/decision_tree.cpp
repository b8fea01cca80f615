#include "ml/decision_tree.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <string>

namespace libra::ml {

namespace {

double impurity_from_counts(const std::vector<int>& counts, int total,
                            Impurity kind) {
  if (total == 0) return 0.0;
  double result = kind == Impurity::kGini ? 1.0 : 0.0;
  for (int c : counts) {
    if (c == 0) continue;
    const double p = static_cast<double>(c) / static_cast<double>(total);
    if (kind == Impurity::kGini) {
      result -= p * p;
    } else {
      result -= p * std::log2(p);
    }
  }
  return result;
}

}  // namespace

DecisionTree::DecisionTree(DecisionTreeConfig cfg) : cfg_(cfg) {}

void DecisionTree::fit(const DataSet& train, util::Rng& rng) {
  nodes_.clear();
  num_classes_ = std::max(train.num_classes(), 2);
  raw_importances_.assign(train.num_features(), 0.0);
  std::vector<std::size_t> indices(train.size());
  std::iota(indices.begin(), indices.end(), 0);
  build(train, indices, 0, rng);
  // Normalize the impurity decreases into Gini importances.
  importances_ = raw_importances_;
  const double total =
      std::accumulate(importances_.begin(), importances_.end(), 0.0);
  if (total > 0) {
    for (double& imp : importances_) imp /= total;
  }
}

int DecisionTree::build(const DataSet& data, std::vector<std::size_t>& indices,
                        int depth, util::Rng& rng) {
  const int node_id = static_cast<int>(nodes_.size());
  nodes_.emplace_back();

  // Majority label for this node (used if it stays a leaf).
  std::vector<int> counts(static_cast<std::size_t>(num_classes_), 0);
  for (std::size_t i : indices) {
    ++counts[static_cast<std::size_t>(data.label(i))];
  }
  nodes_[static_cast<std::size_t>(node_id)].label = static_cast<Label>(
      std::max_element(counts.begin(), counts.end()) - counts.begin());

  const double parent_impurity =
      impurity_from_counts(counts, static_cast<int>(indices.size()),
                           cfg_.impurity);
  const bool pure =
      std::count_if(counts.begin(), counts.end(), [](int c) { return c > 0; }) <= 1;
  if (depth >= cfg_.max_depth || pure ||
      static_cast<int>(indices.size()) < kMinSamplesSplit) {
    return node_id;
  }

  // Candidate features (all, or a random subset for forests).
  std::vector<std::size_t> features(data.num_features());
  std::iota(features.begin(), features.end(), 0);
  if (cfg_.max_features > 0 &&
      cfg_.max_features < static_cast<int>(features.size())) {
    rng.shuffle(features);
    features.resize(static_cast<std::size_t>(cfg_.max_features));
  }

  int best_feature = -1;
  double best_threshold = 0.0;
  double best_gain = 1e-12;
  std::vector<std::pair<double, Label>> column(indices.size());
  for (std::size_t f : features) {
    for (std::size_t i = 0; i < indices.size(); ++i) {
      column[i] = {data.row(indices[i])[f], data.label(indices[i])};
    }
    std::sort(column.begin(), column.end());
    // Sweep split points between consecutive distinct values.
    std::vector<int> left_counts(static_cast<std::size_t>(num_classes_), 0);
    std::vector<int> right_counts = counts;
    const int n = static_cast<int>(column.size());
    for (int i = 0; i + 1 < n; ++i) {
      const auto cls = static_cast<std::size_t>(column[static_cast<std::size_t>(i)].second);
      ++left_counts[cls];
      --right_counts[cls];
      if (column[static_cast<std::size_t>(i)].first ==
          column[static_cast<std::size_t>(i + 1)].first) {
        continue;
      }
      const int n_left = i + 1;
      const int n_right = n - n_left;
      const double child_impurity =
          (static_cast<double>(n_left) *
               impurity_from_counts(left_counts, n_left, cfg_.impurity) +
           static_cast<double>(n_right) *
               impurity_from_counts(right_counts, n_right, cfg_.impurity)) /
          static_cast<double>(n);
      const double gain = parent_impurity - child_impurity;
      if (gain > best_gain) {
        best_gain = gain;
        best_feature = static_cast<int>(f);
        best_threshold = (column[static_cast<std::size_t>(i)].first +
                          column[static_cast<std::size_t>(i + 1)].first) /
                         2.0;
      }
    }
  }

  if (best_feature < 0) return node_id;  // no useful split found

  std::vector<std::size_t> left_idx, right_idx;
  for (std::size_t i : indices) {
    if (data.row(i)[static_cast<std::size_t>(best_feature)] <= best_threshold) {
      left_idx.push_back(i);
    } else {
      right_idx.push_back(i);
    }
  }
  if (left_idx.empty() || right_idx.empty()) return node_id;

  raw_importances_[static_cast<std::size_t>(best_feature)] +=
      best_gain * static_cast<double>(indices.size());

  indices.clear();
  indices.shrink_to_fit();  // free before recursing

  const int left = build(data, left_idx, depth + 1, rng);
  const int right = build(data, right_idx, depth + 1, rng);
  Node& node = nodes_[static_cast<std::size_t>(node_id)];
  node.feature = best_feature;
  node.threshold = best_threshold;
  node.left = left;
  node.right = right;
  return node_id;
}

void DecisionTree::import_model(std::vector<Node> nodes,
                                std::vector<double> importances,
                                int num_classes) {
  // Deserialized state is untrusted: a corrupt model file must fail loudly
  // here, not as out-of-bounds reads or an infinite predict() walk later.
  auto fail = [](const std::string& what) {
    throw std::invalid_argument("DecisionTree::import_model: " + what);
  };
  if (num_classes < 2) {
    fail("num_classes must be >= 2, got " + std::to_string(num_classes));
  }
  const auto n = static_cast<int>(nodes.size());
  for (int id = 0; id < n; ++id) {
    const Node& node = nodes[static_cast<std::size_t>(id)];
    if (node.label < 0 || node.label >= num_classes) {
      fail("node " + std::to_string(id) + " label " +
           std::to_string(node.label) + " outside [0, " +
           std::to_string(num_classes) + ")");
    }
    if (node.feature >= 0) {
      if (!importances.empty() &&
          node.feature >= static_cast<int>(importances.size())) {
        fail("node " + std::to_string(id) + " splits on feature " +
             std::to_string(node.feature) + " but the model has " +
             std::to_string(importances.size()) + " features");
      }
      if (node.left < 0 || node.left >= n || node.right < 0 ||
          node.right >= n) {
        fail("node " + std::to_string(id) + " child index out of range");
      }
    }
  }
  if (n > 0) {
    // Reachability walk from the root: in a well-formed binary tree every
    // node is referenced exactly once, so a revisit means a cycle (or a
    // shared subtree) and a shortfall means orphaned nodes.
    std::vector<char> visited(nodes.size(), 0);
    std::vector<int> stack{0};
    int seen = 0;
    while (!stack.empty()) {
      const int id = stack.back();
      stack.pop_back();
      if (visited[static_cast<std::size_t>(id)]) {
        fail("cycle or shared subtree at node " + std::to_string(id));
      }
      visited[static_cast<std::size_t>(id)] = 1;
      ++seen;
      const Node& node = nodes[static_cast<std::size_t>(id)];
      if (node.feature >= 0) {
        stack.push_back(node.left);
        stack.push_back(node.right);
      }
    }
    if (seen != n) {
      fail(std::to_string(n - seen) + " node(s) unreachable from the root");
    }
  }
  nodes_ = std::move(nodes);
  importances_ = importances;
  raw_importances_ = std::move(importances);
  num_classes_ = num_classes;
}

Label DecisionTree::predict(std::span<const double> features) const {
  if (nodes_.empty()) return 0;
  int id = 0;
  while (nodes_[static_cast<std::size_t>(id)].feature >= 0) {
    const Node& node = nodes_[static_cast<std::size_t>(id)];
    id = features[static_cast<std::size_t>(node.feature)] <= node.threshold
             ? node.left
             : node.right;
  }
  return nodes_[static_cast<std::size_t>(id)].label;
}

int DecisionTree::depth() const {
  if (nodes_.empty()) return 0;
  std::function<int(int)> walk = [&](int id) -> int {
    const Node& node = nodes_[static_cast<std::size_t>(id)];
    if (node.feature < 0) return 1;
    return 1 + std::max(walk(node.left), walk(node.right));
  };
  return walk(0);
}

}  // namespace libra::ml
