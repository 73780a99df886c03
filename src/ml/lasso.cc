#include "ml/lasso.h"

#include <algorithm>
#include <cmath>

#include "linalg/stats.h"
#include "obs/metrics.h"

namespace wpred {
namespace {

double SoftThreshold(double value, double threshold) {
  if (value > threshold) return value - threshold;
  if (value < -threshold) return value + threshold;
  return 0.0;
}

struct Standardised {
  Matrix x;
  Vector y_centered;
  Vector mean;
  Vector scale;
  double y_mean;
};

Standardised StandardiseProblem(const Matrix& x, const Vector& y) {
  Standardised s;
  const ColumnStats stats = ComputeColumnStats(x);
  s.mean = stats.mean;
  s.scale = stats.stddev;
  s.x = Matrix(x.rows(), x.cols());
  for (size_t r = 0; r < x.rows(); ++r) {
    for (size_t c = 0; c < x.cols(); ++c) {
      s.x(r, c) =
          s.scale[c] > 0.0 ? (x(r, c) - s.mean[c]) / s.scale[c] : 0.0;
    }
  }
  s.y_mean = Mean(y);
  s.y_centered.resize(y.size());
  for (size_t i = 0; i < y.size(); ++i) s.y_centered[i] = y[i] - s.y_mean;
  return s;
}

// Cyclic coordinate descent on the standardised problem. `coef` is the
// starting point and receives the solution.
void CoordinateDescent(const Matrix& x, const Vector& y, double alpha,
                      double l1_ratio, int max_iter, double tol,
                      Vector& coef) {
  const size_t n = x.rows();
  const size_t p = x.cols();
  const double inv_n = 1.0 / static_cast<double>(n);

  // Column squared norms / n (constant during descent).
  Vector col_sq(p, 0.0);
  for (size_t r = 0; r < n; ++r) {
    for (size_t c = 0; c < p; ++c) col_sq[c] += x(r, c) * x(r, c);
  }
  for (size_t c = 0; c < p; ++c) col_sq[c] *= inv_n;

  // Residual r = y - X coef.
  Vector residual = y;
  for (size_t c = 0; c < p; ++c) {
    if (coef[c] == 0.0) continue;
    for (size_t r = 0; r < n; ++r) residual[r] -= x(r, c) * coef[c];
  }

  const double l1 = alpha * l1_ratio;
  const double l2 = alpha * (1.0 - l1_ratio);
  int iters = 0;
  for (int iter = 0; iter < max_iter; ++iter) {
    ++iters;
    double max_delta = 0.0;
    for (size_t c = 0; c < p; ++c) {
      if (col_sq[c] == 0.0) continue;
      double rho = 0.0;
      for (size_t r = 0; r < n; ++r) rho += x(r, c) * residual[r];
      rho = rho * inv_n + col_sq[c] * coef[c];
      const double updated = SoftThreshold(rho, l1) / (col_sq[c] + l2);
      const double delta = updated - coef[c];
      if (delta != 0.0) {
        for (size_t r = 0; r < n; ++r) residual[r] -= x(r, c) * delta;
        coef[c] = updated;
        max_delta = std::max(max_delta, std::fabs(delta));
      }
    }
    if (max_delta < tol) break;
  }
  WPRED_COUNT_ADD("ml.lasso.cd_calls", 1);
  WPRED_COUNT_ADD("ml.lasso.cd_sweeps", static_cast<uint64_t>(iters));
}

}  // namespace

Status ElasticNet::Fit(const Matrix& x, const Vector& y) {
  if (x.rows() == 0 || x.cols() == 0) {
    return Status::InvalidArgument("empty design matrix");
  }
  if (x.rows() != y.size()) {
    return Status::InvalidArgument("row count mismatch between x and y");
  }
  if (alpha_ < 0.0) return Status::InvalidArgument("alpha must be >= 0");
  if (l1_ratio_ < 0.0 || l1_ratio_ > 1.0) {
    return Status::InvalidArgument("l1_ratio must be in [0, 1]");
  }
  fitted_ = false;

  const Standardised s = StandardiseProblem(x, y);
  feature_mean_ = s.mean;
  feature_scale_ = s.scale;
  intercept_ = s.y_mean;
  coef_.assign(x.cols(), 0.0);
  CoordinateDescent(s.x, s.y_centered, alpha_, l1_ratio_, max_iter_, tol_,
                    coef_);
  fitted_ = true;
  return Status::OK();
}

Result<double> ElasticNet::Predict(const Vector& row) const {
  if (!fitted_) return Status::FailedPrecondition("model not fitted");
  if (row.size() != coef_.size()) {
    return Status::InvalidArgument("feature arity mismatch");
  }
  double acc = intercept_;
  for (size_t c = 0; c < row.size(); ++c) {
    if (feature_scale_[c] > 0.0) {
      acc += coef_[c] * (row[c] - feature_mean_[c]) / feature_scale_[c];
    }
  }
  return acc;
}

Result<Vector> ElasticNet::FeatureImportances() const {
  if (!fitted_) return Status::FailedPrecondition("model not fitted");
  Vector importances(coef_.size());
  for (size_t i = 0; i < coef_.size(); ++i) {
    importances[i] = std::fabs(coef_[i]);
  }
  return importances;
}

double LassoAlphaMax(const Matrix& x, const Vector& y) {
  WPRED_CHECK_GT(x.rows(), 0u);
  WPRED_CHECK_EQ(x.rows(), y.size());
  const Standardised s = StandardiseProblem(x, y);
  double max_corr = 0.0;
  for (size_t c = 0; c < x.cols(); ++c) {
    double acc = 0.0;
    for (size_t r = 0; r < x.rows(); ++r) acc += s.x(r, c) * s.y_centered[r];
    max_corr = std::max(max_corr, std::fabs(acc) / x.rows());
  }
  return max_corr;
}

Result<LassoPathResult> LassoPath(const Matrix& x, const Vector& y,
                                  int num_alphas, double alpha_min_ratio) {
  if (num_alphas < 2) return Status::InvalidArgument("need >= 2 alphas");
  if (alpha_min_ratio <= 0.0 || alpha_min_ratio >= 1.0) {
    return Status::InvalidArgument("alpha_min_ratio must be in (0, 1)");
  }
  if (x.rows() == 0 || x.rows() != y.size()) {
    return Status::InvalidArgument("bad problem shape");
  }

  const double alpha_max = LassoAlphaMax(x, y);
  if (alpha_max == 0.0) {
    return Status::NumericalError("target uncorrelated with every feature");
  }
  const Standardised s = StandardiseProblem(x, y);

  LassoPathResult path;
  path.alphas.resize(num_alphas);
  path.coefficients = Matrix(num_alphas, x.cols());
  const double log_max = std::log(alpha_max);
  const double log_min = std::log(alpha_max * alpha_min_ratio);

  Vector coef(x.cols(), 0.0);  // warm start down the path
  for (int a = 0; a < num_alphas; ++a) {
    const double frac = static_cast<double>(a) / (num_alphas - 1);
    const double alpha = std::exp(log_max + (log_min - log_max) * frac);
    path.alphas[a] = alpha;
    CoordinateDescent(s.x, s.y_centered, alpha, 1.0, 1000, 1e-6, coef);
    path.coefficients.SetRow(a, coef);
  }
  return path;
}

}  // namespace wpred
