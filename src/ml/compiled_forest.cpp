#include "ml/compiled_forest.h"

#include <algorithm>
#include <deque>
#include <limits>
#include <stdexcept>
#include <string>

#include "ml/random_forest.h"

namespace libra::ml {

namespace {

// Rows interleaved per group sweep in the batch walk.
constexpr int kGroup = 8;
// Rows per pooled task in the batch paths: large enough to amortize
// dispatch, small enough to load-balance uneven tree depths.
constexpr std::size_t kRowBlock = 64;

// One row through one tree. Leaf labels ride in the feature word, so the
// loop exit test doubles as the vote read. The comparison result indexes
// into the child pair instead of selecting between two loads -- no
// data-dependent branch to mispredict, one load instead of two.
inline int walk_tree(const std::int16_t* feature, const double* thr,
                     const std::int32_t* child, std::size_t idx,
                     const double* row) {
  std::int16_t f = feature[idx];
  while (f >= 0) {
    const std::size_t go_right = row[f] <= thr[idx] ? 0 : 1;
    idx += static_cast<std::size_t>(child[2 * idx + go_right]);
    f = feature[idx];
  }
  return -1 - f;
}

// A group of kGroup rows through one tree together. A lone walk is
// latency-bound -- every level is a dependent load->compare->index chain --
// so interleaving independent rows lets the core overlap the chains. A
// finished row parks on its leaf: leaf child offsets are both 0, stepping
// it is a no-op (its cached feature word is clamped so the dummy feature
// read stays in bounds), and the group spins only until every row has
// parked -- cheap here because trees are depth-capped, so park times are
// close. Evaluation order over (tree, row) changes versus the serial walk
// but the integer vote counts are order-invariant, so batch results stay
// bit-identical.
inline void walk_group(const std::int16_t* feature, const double* thr,
                       const std::int32_t* child, std::size_t root,
                       const double* rows, std::size_t stride, int* labels) {
  std::size_t idx[kGroup];
  std::int16_t word[kGroup];  // feature word at idx[k], cached across sweeps
  const std::int16_t root_word = feature[root];
  for (int k = 0; k < kGroup; ++k) {
    idx[k] = root;
    word[k] = root_word;
  }
  bool active = root_word >= 0;
  while (active) {
    bool any = false;
    for (int k = 0; k < kGroup; ++k) {
      const std::int16_t f = word[k];
      const std::size_t safe_f = static_cast<std::size_t>(f >= 0 ? f : 0);
      const std::size_t i = idx[k];
      const std::size_t go_right =
          rows[static_cast<std::size_t>(k) * stride + safe_f] <= thr[i] ? 0
                                                                        : 1;
      const std::size_t next =
          i + static_cast<std::size_t>(child[2 * i + go_right]);
      idx[k] = next;
      word[k] = feature[next];
      any |= word[k] >= 0;
    }
    active = any;
  }
  for (int k = 0; k < kGroup; ++k) labels[k] = -1 - word[k];
}

// One row block through the whole forest, trees outermost so a tree's
// upper levels stay cache-hot across the block. rows points at the block's
// first row (stride elements apart), votes is row-major
// [num_rows x num_classes]. Full groups run the fixed-size walk (the
// constant trip count keeps the interleaved state in registers); the block
// tail walks serially, so a 1-row batch costs exactly one walk per tree.
// Kept out of line: inlined into block_votes, GCC 12 schedules the group
// walk ~25% slower (BM_CompiledForestBatch).
[[gnu::noinline]] void accumulate_block(
    const std::int16_t* feature, const double* thr, const std::int32_t* child,
    const std::uint32_t* roots, std::size_t num_trees, const double* rows,
    std::size_t stride, int num_rows, std::uint32_t* votes, int num_classes) {
  int labels[kGroup];
  const int full = num_rows - num_rows % kGroup;
  for (std::size_t t = 0; t < num_trees; ++t) {
    for (int r = 0; r < full; r += kGroup) {
      walk_group(feature, thr, child, roots[t],
                 rows + static_cast<std::size_t>(r) * stride, stride, labels);
      for (int k = 0; k < kGroup; ++k) {
        ++votes[static_cast<std::size_t>(r + k) *
                    static_cast<std::size_t>(num_classes) +
                static_cast<std::size_t>(labels[k])];
      }
    }
    for (int k = full; k < num_rows; ++k) {
      ++votes[static_cast<std::size_t>(k) *
                  static_cast<std::size_t>(num_classes) +
              static_cast<std::size_t>(walk_tree(
                  feature, thr, child, roots[t],
                  rows + static_cast<std::size_t>(k) * stride))];
    }
  }
}

// Append one tree's nodes to the arena breadth-first. BFS packing keeps a
// level's nodes adjacent, so a batch of rows descending in lockstep touches
// a contiguous window per level instead of preorder's left-spine jumps.
void pack_tree(const DecisionTree& tree, std::size_t tree_index,
               int num_classes, std::vector<std::int16_t>& feature,
               std::vector<std::int32_t>& child,
               std::vector<double>& threshold) {
  const std::vector<DecisionTree::Node>& nodes = tree.nodes();
  const auto n = static_cast<int>(nodes.size());
  auto fail = [&](const std::string& what) {
    throw std::invalid_argument("CompiledForest: tree " +
                                std::to_string(tree_index) + ": " + what);
  };

  // First pass: BFS order and the original->arena index map.
  std::vector<std::int32_t> arena_slot(nodes.size(), -1);
  std::vector<std::int32_t> order;
  order.reserve(nodes.size());
  std::deque<std::int32_t> queue{0};
  while (!queue.empty()) {
    const std::int32_t id = queue.front();
    queue.pop_front();
    if (id < 0 || id >= n) fail("child index out of range");
    if (arena_slot[static_cast<std::size_t>(id)] >= 0) {
      fail("cycle or shared subtree");
    }
    arena_slot[static_cast<std::size_t>(id)] =
        static_cast<std::int32_t>(order.size());
    order.push_back(id);
    const DecisionTree::Node& node = nodes[static_cast<std::size_t>(id)];
    if (node.feature >= 0) {
      queue.push_back(node.left);
      queue.push_back(node.right);
    }
  }

  // Second pass: emit the packed words in BFS order.
  for (std::size_t slot = 0; slot < order.size(); ++slot) {
    const DecisionTree::Node& node =
        nodes[static_cast<std::size_t>(order[slot])];
    if (node.feature >= 0) {
      if (node.feature > std::numeric_limits<std::int16_t>::max()) {
        fail("feature index " + std::to_string(node.feature) +
             " does not fit int16");
      }
      feature.push_back(static_cast<std::int16_t>(node.feature));
      child.push_back(arena_slot[static_cast<std::size_t>(node.left)] -
                      static_cast<std::int32_t>(slot));
      child.push_back(arena_slot[static_cast<std::size_t>(node.right)] -
                      static_cast<std::int32_t>(slot));
      threshold.push_back(node.threshold);
    } else {
      if (node.label < 0 || node.label >= num_classes) {
        fail("leaf label " + std::to_string(node.label) +
             " outside [0, " + std::to_string(num_classes) + ")");
      }
      if (node.label > std::numeric_limits<std::int16_t>::max() - 1) {
        fail("leaf label does not fit int16");
      }
      // Fold the class ID into the node word: feature = ~label < 0.
      feature.push_back(static_cast<std::int16_t>(-1 - node.label));
      child.push_back(0);
      child.push_back(0);
      // Leaves store a zero threshold: the word is never compared, but the
      // arrays stay index-parallel.
      threshold.push_back(0.0);
    }
  }
}

}  // namespace

CompiledForest::CompiledForest(const RandomForest& forest)
    : num_classes_(forest.num_classes()) {
  const std::vector<DecisionTree>& trees = forest.trees();
  if (trees.empty()) {
    throw std::invalid_argument("CompiledForest: forest is not fitted");
  }
  if (num_classes_ < 2) {
    throw std::invalid_argument("CompiledForest: num_classes must be >= 2");
  }
  std::size_t total_nodes = 0;
  for (const DecisionTree& tree : trees) {
    total_nodes += tree.nodes().size();
  }
  feature_.reserve(total_nodes);
  thr_d_.reserve(total_nodes);
  child_.reserve(2 * total_nodes);
  roots_.reserve(trees.size());

  for (std::size_t t = 0; t < trees.size(); ++t) {
    if (trees[t].nodes().empty()) {
      throw std::invalid_argument("CompiledForest: tree " + std::to_string(t) +
                                  " is empty");
    }
    roots_.push_back(static_cast<std::uint32_t>(feature_.size()));
    pack_tree(trees[t], t, num_classes_, feature_, child_, thr_d_);
  }
}

std::size_t CompiledForest::arena_bytes() const {
  return feature_.size() * sizeof(std::int16_t) +
         thr_d_.size() * sizeof(double) +
         child_.size() * sizeof(std::int32_t) +
         roots_.size() * sizeof(std::uint32_t);
}

void CompiledForest::accumulate_votes(std::span<const double> row,
                                      std::vector<std::uint32_t>& votes) const {
  for (const std::uint32_t root : roots_) {
    ++votes[static_cast<std::size_t>(walk_tree(
        feature_.data(), thr_d_.data(), child_.data(), root, row.data()))];
  }
}

Label CompiledForest::predict(std::span<const double> features) const {
  if (empty()) {
    throw std::logic_error("CompiledForest::predict: empty (not compiled)");
  }
  std::vector<std::uint32_t> votes(static_cast<std::size_t>(num_classes_), 0);
  accumulate_votes(features, votes);
  return static_cast<Label>(
      std::max_element(votes.begin(), votes.end()) - votes.begin());
}

std::vector<double> CompiledForest::vote_fractions(
    std::span<const double> features) const {
  std::vector<double> fractions(static_cast<std::size_t>(num_classes_), 0.0);
  if (empty()) return fractions;
  std::vector<std::uint32_t> votes(static_cast<std::size_t>(num_classes_), 0);
  accumulate_votes(features, votes);
  // Integer vote counts divided by num_trees: exact, and bit-identical to
  // the interpreted path's (sum of 1.0s) / num_trees.
  for (std::size_t c = 0; c < fractions.size(); ++c) {
    fractions[c] = static_cast<double>(votes[c]) /
                   static_cast<double>(roots_.size());
  }
  return fractions;
}

// Run one block's grouped tree walks and leave row-major
// [num_rows x num_classes] counts in votes. The DataSet's feature matrix is
// row-major and contiguous, so the block is addressed as base + k*stride
// directly — no per-row pointer gathering.
void CompiledForest::block_votes(const DataSet& data, std::size_t begin,
                                 std::size_t end,
                                 std::vector<std::uint32_t>& votes) const {
  const int num_rows = static_cast<int>(end - begin);
  votes.assign(static_cast<std::size_t>(num_rows) *
                   static_cast<std::size_t>(num_classes_),
               0u);
  accumulate_block(feature_.data(), thr_d_.data(), child_.data(),
                   roots_.data(), roots_.size(), data.row(begin).data(),
                   data.num_features(), num_rows, votes.data(), num_classes_);
}

std::vector<Label> CompiledForest::predict_batch(const DataSet& data,
                                                 util::ThreadPool* pool) const {
  if (empty()) {
    throw std::logic_error(
        "CompiledForest::predict_batch: empty (not compiled)");
  }
  std::vector<Label> out(data.size());
  const std::size_t num_blocks = (data.size() + kRowBlock - 1) / kRowBlock;
  const std::size_t classes = static_cast<std::size_t>(num_classes_);
  util::parallel_for(pool, num_blocks, [&](std::size_t b) {
    std::vector<std::uint32_t> votes;
    const std::size_t begin = b * kRowBlock;
    const std::size_t end = std::min(data.size(), begin + kRowBlock);
    block_votes(data, begin, end, votes);
    for (std::size_t i = begin; i < end; ++i) {
      const std::uint32_t* row_votes = votes.data() + (i - begin) * classes;
      out[i] = static_cast<Label>(
          std::max_element(row_votes, row_votes + classes) - row_votes);
    }
  });
  return out;
}

std::vector<std::vector<double>> CompiledForest::vote_fractions_batch(
    const DataSet& data, util::ThreadPool* pool) const {
  std::vector<std::vector<double>> out(data.size());
  if (empty()) {
    for (auto& row : out) {
      row.assign(static_cast<std::size_t>(num_classes_), 0.0);
    }
    return out;
  }
  const std::size_t num_blocks = (data.size() + kRowBlock - 1) / kRowBlock;
  const std::size_t classes = static_cast<std::size_t>(num_classes_);
  util::parallel_for(pool, num_blocks, [&](std::size_t b) {
    std::vector<std::uint32_t> votes;
    const std::size_t begin = b * kRowBlock;
    const std::size_t end = std::min(data.size(), begin + kRowBlock);
    block_votes(data, begin, end, votes);
    for (std::size_t i = begin; i < end; ++i) {
      const std::uint32_t* row_votes = votes.data() + (i - begin) * classes;
      std::vector<double>& fractions = out[i];
      fractions.resize(classes);
      for (std::size_t c = 0; c < classes; ++c) {
        fractions[c] = static_cast<double>(row_votes[c]) /
                       static_cast<double>(roots_.size());
      }
    }
  });
  return out;
}

}  // namespace libra::ml
