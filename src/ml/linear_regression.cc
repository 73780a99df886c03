#include "ml/linear_regression.h"

#include <cmath>

#include "linalg/solve.h"

namespace wpred {

Status LinearRegression::Fit(const Matrix& x, const Vector& y) {
  if (x.rows() == 0 || x.cols() == 0) {
    return Status::InvalidArgument("empty design matrix");
  }
  if (x.rows() != y.size()) {
    return Status::InvalidArgument("row count mismatch between x and y");
  }
  fitted_ = false;

  // Augment with an (un-regularised via tiny ridge share) intercept column.
  Matrix design(x.rows(), x.cols() + 1);
  for (size_t r = 0; r < x.rows(); ++r) {
    design(r, 0) = 1.0;
    for (size_t c = 0; c < x.cols(); ++c) design(r, c + 1) = x(r, c);
  }
  WPRED_ASSIGN_OR_RETURN(Vector w, SolveLeastSquares(design, y, ridge_));
  intercept_ = w[0];
  coef_.assign(w.begin() + 1, w.end());
  fitted_ = true;
  return Status::OK();
}

Result<double> LinearRegression::Predict(const Vector& row) const {
  if (!fitted_) return Status::FailedPrecondition("model not fitted");
  if (row.size() != coef_.size()) {
    return Status::InvalidArgument("feature arity mismatch");
  }
  return intercept_ + Dot(coef_, row);
}

Result<Vector> LinearRegression::FeatureImportances() const {
  if (!fitted_) return Status::FailedPrecondition("model not fitted");
  Vector importances(coef_.size());
  for (size_t i = 0; i < coef_.size(); ++i) {
    importances[i] = std::fabs(coef_[i]);
  }
  return importances;
}

}  // namespace wpred
