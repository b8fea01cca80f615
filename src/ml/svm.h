// Support vector machine (Sec. 6.2): soft-margin SVM trained with a
// simplified SMO solver, supporting linear and RBF kernels and different
// regularization parameters C (the axes the paper explores). Multiclass is
// handled one-vs-rest. Features are standardized internally.
#pragma once

#include <vector>

#include "ml/data.h"

namespace libra::ml {

enum class Kernel { kLinear, kRbf };

// RBF width (on standardized features).
inline constexpr double kSvmGamma = 0.5;
inline constexpr double kSvmTolerance = 1e-3;
// SMO convergence: passes without alpha updates.
inline constexpr int kSvmMaxPasses = 8;
inline constexpr int kSvmMaxIterations = 3000;

struct SvmConfig {
  Kernel kernel = Kernel::kRbf;
  double c = 5.0;          // regularization
};

// Binary SVM with labels in {-1, +1}.
class BinarySvm {
 public:
  explicit BinarySvm(SvmConfig cfg = {});

  // y must contain only -1 and +1.
  void fit(const DataSet& x, const std::vector<int>& y, util::Rng& rng);
  double decision(std::span<const double> features) const;

 private:
  double kernel_eval(std::span<const double> a, std::span<const double> b) const;

  SvmConfig cfg_;
  DataSet support_;            // retained training points (alpha > 0)
  std::vector<double> alpha_y_;  // alpha_i * y_i per support vector
  double bias_ = 0.0;
};

class Svm : public Classifier {
 public:
  explicit Svm(SvmConfig cfg = {});

  void fit(const DataSet& train, util::Rng& rng) override;
  Label predict(std::span<const double> features) const override;

 private:
  SvmConfig cfg_;
  Standardizer standardizer_;
  std::vector<BinarySvm> one_vs_rest_;
  int num_classes_ = 2;
};

}  // namespace libra::ml
