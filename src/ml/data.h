// Dataset containers for the ML models (Sec. 6.2): dense row-major feature
// matrix plus integer class labels, with helpers for stratified splitting
// and standardization (needed by the SVM and the DNN).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "util/rng.h"
#include "util/thread_pool.h"

namespace libra::ml {

using Label = int;

class DataSet {
 public:
  DataSet() = default;
  DataSet(std::size_t num_features) : num_features_(num_features) {}

  void add(std::span<const double> features, Label label);
  // Pre-size for `rows` add() calls (batch builders know their row count).
  void reserve(std::size_t rows);

  std::size_t size() const { return labels_.size(); }
  std::size_t num_features() const { return num_features_; }
  bool empty() const { return labels_.empty(); }

  std::span<const double> row(std::size_t i) const {
    return {features_.data() + i * num_features_, num_features_};
  }
  Label label(std::size_t i) const { return labels_[i]; }
  const std::vector<Label>& labels() const { return labels_; }

  int num_classes() const;

  DataSet subset(std::span<const std::size_t> indices) const;

 private:
  std::size_t num_features_ = 0;
  std::vector<double> features_;  // row-major
  std::vector<Label> labels_;
};

// Per-feature standardization (zero mean, unit variance) fit on a training
// set and applied to any set.
class Standardizer {
 public:
  void fit(const DataSet& train);
  std::vector<double> transform_row(std::span<const double> row) const;
  DataSet transform(const DataSet& data) const;

  const std::vector<double>& means() const { return mean_; }

 private:
  std::vector<double> mean_;
  std::vector<double> std_;
};

// Indices of a stratified train/test split: each fold preserves the class
// proportions of the full set (Sec. 6.2 "stratified 5-fold cross
// validation").
struct FoldSplit {
  std::vector<std::size_t> train;
  std::vector<std::size_t> test;
};

std::vector<FoldSplit> stratified_kfold(const DataSet& data, int k,
                                        util::Rng& rng);

// Abstract classifier interface shared by all four model families.
class Classifier {
 public:
  virtual ~Classifier() = default;
  virtual void fit(const DataSet& train, util::Rng& rng) = 0;
  virtual Label predict(std::span<const double> features) const = 0;

  // Predict every row; `pool` parallelizes across rows (nullptr = serial).
  // The output order is row order either way.
  std::vector<Label> predict_all(const DataSet& data,
                                 util::ThreadPool* pool = nullptr) const;
};

}  // namespace libra::ml
