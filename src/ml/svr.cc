#include "ml/svr.h"

#include <cmath>

#include "common/rng.h"

namespace wpred {

// Both operands are rows of support_.cols() doubles, read in place; the
// sums run in index order.
double SvmRegressor::Kernel(const double* a, const double* b) const {
  const size_t p = support_.cols();
  if (params_.kernel == SvmKernel::kLinear) {
    double dot = 0.0;
    for (size_t i = 0; i < p; ++i) dot += a[i] * b[i];
    return dot + 1.0;
  }
  double sq = 0.0;
  for (size_t i = 0; i < p; ++i) {
    const double d = a[i] - b[i];
    sq += d * d;
  }
  return std::exp(-gamma_ * sq);
}

Status SvmRegressor::Fit(const Matrix& x, const Vector& y) {
  if (x.rows() == 0 || x.cols() == 0) {
    return Status::InvalidArgument("empty design matrix");
  }
  if (x.rows() != y.size()) {
    return Status::InvalidArgument("row count mismatch between x and y");
  }
  if (params_.c <= 0.0) return Status::InvalidArgument("C must be positive");
  if (params_.epsilon < 0.0) {
    return Status::InvalidArgument("epsilon must be >= 0");
  }
  fitted_ = false;

  support_ = x_scaler_.FitTransform(x);
  y_scaler_.Fit(y);
  const Vector ys = y_scaler_.Transform(y);

  if (params_.gamma > 0.0) {
    gamma_ = params_.gamma;
  } else {
    // sklearn's "scale": 1 / (p · Var(X)); after standardisation Var ≈ 1.
    gamma_ = 1.0 / static_cast<double>(x.cols());
  }

  const size_t n = support_.rows();
  const double lambda = 1.0 / (params_.c * static_cast<double>(n));
  beta_.assign(n, 0.0);

  // Precompute the kernel matrix (training sets here are small: the paper's
  // scaling models fit on tens of points).
  Matrix k(n, n);
  const double* rows = support_.data().data();
  const size_t p = support_.cols();
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i; j < n; ++j) {
      const double v = Kernel(rows + i * p, rows + j * p);
      k(i, j) = v;
      k(j, i) = v;
    }
  }

  Rng rng(params_.seed);
  uint64_t t = 1;
  for (int epoch = 0; epoch < params_.epochs; ++epoch) {
    const std::vector<size_t> order = rng.Permutation(n);
    for (size_t idx : order) {
      const double eta = 1.0 / (lambda * static_cast<double>(t));
      ++t;
      double f = 0.0;
      for (size_t j = 0; j < n; ++j) {
        if (beta_[j] != 0.0) f += beta_[j] * k(idx, j);
      }
      // Subgradient of the ε-insensitive loss, plus L2 shrinkage on β.
      const double err = ys[idx] - f;
      const double shrink = 1.0 - eta * lambda;
      for (double& b : beta_) b *= shrink;
      if (err > params_.epsilon) {
        beta_[idx] += eta;
      } else if (err < -params_.epsilon) {
        beta_[idx] -= eta;
      }
    }
  }
  fitted_ = true;
  return Status::OK();
}

Result<double> SvmRegressor::Predict(const Vector& row) const {
  if (!fitted_) return Status::FailedPrecondition("model not fitted");
  if (row.size() != support_.cols()) {
    return Status::InvalidArgument("feature arity mismatch");
  }
  const Vector z = x_scaler_.TransformRow(row);
  const double* rows = support_.data().data();
  const size_t p = support_.cols();
  double f = 0.0;
  for (size_t j = 0; j < support_.rows(); ++j) {
    if (beta_[j] != 0.0) f += beta_[j] * Kernel(z.data(), rows + j * p);
  }
  return y_scaler_.InverseTransform(f);
}

size_t SvmRegressor::NumSupportVectors() const {
  size_t count = 0;
  for (double b : beta_) {
    if (b != 0.0) ++count;
  }
  return count;
}

}  // namespace wpred
