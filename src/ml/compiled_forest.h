// Compiled forest inference: a fitted RandomForest frozen into one
// contiguous structure-of-arrays arena for cache-linear batched traversal.
//
// The interpreted forest walks per-tree std::vector<Node> heaps through
// 40-byte nodes scattered across 60 allocations; at fleet scale (a 60-tree
// vote every 2 frames per link) that pointer-chasing walk dominates serving
// cost. Compiling packs every tree's nodes breadth-first into shared flat
// arrays:
//
//   feature_[i]   int16   split feature; leaves fold the class ID into the
//                         same word as ~label (feature_ < 0 <=> leaf, so
//                         label = -1 - feature_ and one load both ends the
//                         walk and yields the vote)
//   thr_d_[i]     double  split threshold (go left when x[f] <= thr)
//   child_[2i],   int32   relative child offsets: left child = i +
//   child_[2i+1]          child_[2i], right child = i + child_[2i+1]. The
//                         pair is interleaved so the branch decision indexes
//                         one load (child_[2i + go_right]) instead of
//                         selecting between two. BFS packing keeps offsets
//                         small and forward.
//
// plus per-tree root offsets (roots_[t]). Traversal touches four parallel
// arrays sequentially-indexed per step instead of one scattered node heap,
// and a whole batch walks the same hot arena.
//
// Traversal is scalar: batches walk 8 interleaved rows per tree group so
// the dependent load-compare-index chains overlap. Every comparison
// `x[f] <= threshold` is evaluated on exactly the values the interpreted
// walk uses (NaN goes right, -inf left, +inf right), so predict /
// vote_fractions / the batch variants are bit-identical to RandomForest's
// pointer walk (vote fractions are integer counts divided by num_trees —
// exact in double).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "ml/data.h"
#include "util/thread_pool.h"

namespace libra::ml {

class RandomForest;

class CompiledForest {
 public:
  CompiledForest() = default;  // empty; predict() throws until compiled

  // Freeze a fitted forest. Throws std::invalid_argument when the forest is
  // unfitted or its trees cannot be packed (feature index or leaf label
  // beyond int16, malformed children).
  explicit CompiledForest(const RandomForest& forest);

  bool empty() const { return roots_.empty(); }
  int num_trees() const { return static_cast<int>(roots_.size()); }
  int num_classes() const { return num_classes_; }
  std::size_t node_count() const { return feature_.size(); }
  // Total bytes of the arena (the cache footprint of a traversal).
  std::size_t arena_bytes() const;

  // Single-row inference; identical tie-breaking (first max) to
  // RandomForest::predict. Throws std::logic_error when empty().
  Label predict(std::span<const double> features) const;
  // Per-class vote fractions (counts / num_trees); all-zero when empty().
  std::vector<double> vote_fractions(std::span<const double> features) const;

  // Batched inference, row-blocked across `pool` (nullptr = serial). Row
  // order and values of the result are independent of threading.
  std::vector<Label> predict_batch(const DataSet& data,
                                   util::ThreadPool* pool = nullptr) const;
  std::vector<std::vector<double>> vote_fractions_batch(
      const DataSet& data, util::ThreadPool* pool = nullptr) const;

 private:
  // Walk every tree for one row, bumping votes[class]. votes must hold
  // num_classes_ zeroed slots.
  void accumulate_votes(std::span<const double> row,
                        std::vector<std::uint32_t>& votes) const;
  // Vote counts for rows [begin, end), trees outermost with interleaved
  // row groups per tree. votes is caller-owned scratch; it comes back
  // row-major [(end - begin) x num_classes].
  void block_votes(const DataSet& data, std::size_t begin, std::size_t end,
                   std::vector<std::uint32_t>& votes) const;

  int num_classes_ = 0;
  std::vector<std::int16_t> feature_;  // < 0: leaf, label = -1 - feature_
  std::vector<double> thr_d_;
  // Interleaved relative child-offset pairs, 2 per node (both 0 on leaves).
  std::vector<std::int32_t> child_;
  std::vector<std::uint32_t> roots_;  // arena index of each tree's root
};

}  // namespace libra::ml
