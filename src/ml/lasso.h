#ifndef WPRED_ML_LASSO_H_
#define WPRED_ML_LASSO_H_

#include "ml/model.h"

namespace wpred {

/// Elastic-net linear regression fit by cyclic coordinate descent on
/// standardised inputs (scikit-learn's objective):
///
///   (1/2n)·||y − Xw − b||² + α·λ₁·||w||₁ + (α/2)·(1−λ₁)·||w||²
///
/// with l1_ratio λ₁ = 1 giving the Lasso and λ₁ = 0 ridge. Coefficients are
/// reported in the standardised feature space (the paper's Figure 3 plots
/// them that way), and predictions map back to the original scale.
class ElasticNet : public Regressor {
 public:
  ElasticNet(double alpha, double l1_ratio, int max_iter = 1000,
             double tol = 1e-6)
      : alpha_(alpha), l1_ratio_(l1_ratio), max_iter_(max_iter), tol_(tol) {}

  Status Fit(const Matrix& x, const Vector& y) override;
  Result<double> Predict(const Vector& row) const override;
  bool fitted() const override { return fitted_; }

  /// |standardised coefficient| per feature; the embedded-selection signal.
  Result<Vector> FeatureImportances() const override;

  /// Coefficients in the standardised feature space.
  const Vector& coefficients() const { return coef_; }
  /// Intercept in the standardised space (mean of y).
  double intercept() const { return intercept_; }

 private:
  double alpha_;
  double l1_ratio_;
  int max_iter_;
  double tol_;

  Vector coef_;
  double intercept_ = 0.0;
  Vector feature_mean_;
  Vector feature_scale_;
  bool fitted_ = false;
};

/// Lasso = ElasticNet with l1_ratio 1.
class Lasso : public ElasticNet {
 public:
  explicit Lasso(double alpha, int max_iter = 1000, double tol = 1e-6)
      : ElasticNet(alpha, 1.0, max_iter, tol) {}
};

/// Smallest α that zeroes every coefficient (max |X̃ᵀỹ|/n on the
/// standardised problem); the natural top of a regularisation path.
double LassoAlphaMax(const Matrix& x, const Vector& y);

/// Lasso regularisation path (paper Figure 3): fits the model on a
/// descending α grid and returns the coefficient matrix (one row per α,
/// one column per feature, standardised space). The grid is logarithmic
/// from α_max down to α_max·alpha_min_ratio.
struct LassoPathResult {
  Vector alphas;
  Matrix coefficients;  // n_alphas x n_features
};
Result<LassoPathResult> LassoPath(const Matrix& x, const Vector& y,
                                  int num_alphas = 50,
                                  double alpha_min_ratio = 1e-3);

}  // namespace wpred

#endif  // WPRED_ML_LASSO_H_
