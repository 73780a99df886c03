#ifndef WPRED_ML_LINEAR_REGRESSION_H_
#define WPRED_ML_LINEAR_REGRESSION_H_

#include "ml/model.h"

namespace wpred {

/// Ordinary least squares (optionally ridge-regularised) linear regression
/// with an intercept. Feature importances are |coefficients| — meaningful
/// when inputs are standardised (RFE/SFS standardise before fitting).
class LinearRegression : public Regressor {
 public:
  explicit LinearRegression(double ridge = 0.0) : ridge_(ridge) {}

  Status Fit(const Matrix& x, const Vector& y) override;
  Result<double> Predict(const Vector& row) const override;
  bool fitted() const override { return fitted_; }
  Result<Vector> FeatureImportances() const override;

  const Vector& coefficients() const { return coef_; }
  double intercept() const { return intercept_; }

 private:
  double ridge_;
  Vector coef_;
  double intercept_ = 0.0;
  bool fitted_ = false;
};

}  // namespace wpred

#endif  // WPRED_ML_LINEAR_REGRESSION_H_
