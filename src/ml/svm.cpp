#include "ml/svm.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace libra::ml {

BinarySvm::BinarySvm(SvmConfig cfg) : cfg_(cfg) {}

double BinarySvm::kernel_eval(std::span<const double> a,
                              std::span<const double> b) const {
  if (cfg_.kernel == Kernel::kLinear) {
    double dot = 0.0;
    for (std::size_t i = 0; i < a.size(); ++i) dot += a[i] * b[i];
    return dot;
  }
  double dist2 = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double d = a[i] - b[i];
    dist2 += d * d;
  }
  return std::exp(-kSvmGamma * dist2);
}

void BinarySvm::fit(const DataSet& x, const std::vector<int>& y,
                    util::Rng& rng) {
  const std::size_t n = x.size();
  if (n == 0 || y.size() != n) throw std::invalid_argument("bad SVM input");

  std::vector<double> alpha(n, 0.0);
  double b = 0.0;

  // Precompute the kernel matrix (datasets here are a few hundred rows).
  std::vector<double> k(n * n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i; j < n; ++j) {
      k[i * n + j] = k[j * n + i] = kernel_eval(x.row(i), x.row(j));
    }
  }

  const auto f = [&](std::size_t i) {
    double sum = b;
    for (std::size_t j = 0; j < n; ++j) {
      if (alpha[j] != 0.0) sum += alpha[j] * y[j] * k[j * n + i];
    }
    return sum;
  };

  // Simplified SMO (Platt 1998 / CS229 variant).
  int passes = 0;
  int iterations = 0;
  while (passes < kSvmMaxPasses && iterations < kSvmMaxIterations) {
    ++iterations;
    int changed = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const double ei = f(i) - y[i];
      const bool violates =
          (y[i] * ei < -kSvmTolerance && alpha[i] < cfg_.c) ||
          (y[i] * ei > kSvmTolerance && alpha[i] > 0.0);
      if (!violates) continue;
      std::size_t j = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<int>(n) - 2));
      if (j >= i) ++j;
      const double ej = f(j) - y[j];
      const double ai_old = alpha[i];
      const double aj_old = alpha[j];
      double lo, hi;
      if (y[i] != y[j]) {
        lo = std::max(0.0, alpha[j] - alpha[i]);
        hi = std::min(cfg_.c, cfg_.c + alpha[j] - alpha[i]);
      } else {
        lo = std::max(0.0, alpha[i] + alpha[j] - cfg_.c);
        hi = std::min(cfg_.c, alpha[i] + alpha[j]);
      }
      if (lo >= hi) continue;
      const double eta = 2.0 * k[i * n + j] - k[i * n + i] - k[j * n + j];
      if (eta >= 0.0) continue;
      alpha[j] = std::clamp(aj_old - y[j] * (ei - ej) / eta, lo, hi);
      if (std::abs(alpha[j] - aj_old) < 1e-5) continue;
      alpha[i] = ai_old + y[i] * y[j] * (aj_old - alpha[j]);
      const double b1 = b - ei - y[i] * (alpha[i] - ai_old) * k[i * n + i] -
                        y[j] * (alpha[j] - aj_old) * k[i * n + j];
      const double b2 = b - ej - y[i] * (alpha[i] - ai_old) * k[i * n + j] -
                        y[j] * (alpha[j] - aj_old) * k[j * n + j];
      if (alpha[i] > 0.0 && alpha[i] < cfg_.c) {
        b = b1;
      } else if (alpha[j] > 0.0 && alpha[j] < cfg_.c) {
        b = b2;
      } else {
        b = (b1 + b2) / 2.0;
      }
      ++changed;
    }
    passes = changed == 0 ? passes + 1 : 0;
  }

  // Retain only the support vectors.
  support_ = DataSet(x.num_features());
  alpha_y_.clear();
  for (std::size_t i = 0; i < n; ++i) {
    if (alpha[i] > 1e-8) {
      support_.add(x.row(i), 0);
      alpha_y_.push_back(alpha[i] * y[i]);
    }
  }
  bias_ = b;
}

double BinarySvm::decision(std::span<const double> features) const {
  double sum = bias_;
  for (std::size_t i = 0; i < support_.size(); ++i) {
    sum += alpha_y_[i] * kernel_eval(support_.row(i), features);
  }
  return sum;
}

Svm::Svm(SvmConfig cfg) : cfg_(cfg) {}

void Svm::fit(const DataSet& train, util::Rng& rng) {
  num_classes_ = std::max(train.num_classes(), 2);
  standardizer_.fit(train);
  const DataSet x = standardizer_.transform(train);

  one_vs_rest_.clear();
  const int machines = num_classes_ == 2 ? 1 : num_classes_;
  for (int c = 0; c < machines; ++c) {
    std::vector<int> y(x.size());
    for (std::size_t i = 0; i < x.size(); ++i) {
      y[i] = x.label(i) == c ? 1 : -1;
    }
    BinarySvm machine(cfg_);
    machine.fit(x, y, rng);
    one_vs_rest_.push_back(std::move(machine));
  }
}

Label Svm::predict(std::span<const double> features) const {
  const std::vector<double> z = standardizer_.transform_row(features);
  if (one_vs_rest_.size() == 1) {
    // Binary: machine 0 separates class 0 (+1) from class 1 (-1).
    return one_vs_rest_[0].decision(z) >= 0.0 ? 0 : 1;
  }
  Label best = 0;
  double best_score = -1e300;
  for (std::size_t c = 0; c < one_vs_rest_.size(); ++c) {
    const double score = one_vs_rest_[c].decision(z);
    if (score > best_score) {
      best_score = score;
      best = static_cast<Label>(c);
    }
  }
  return best;
}

}  // namespace libra::ml
