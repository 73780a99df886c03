#ifndef WPRED_ML_SVR_H_
#define WPRED_ML_SVR_H_

#include <vector>

#include "linalg/stats.h"
#include "ml/model.h"

namespace wpred {

enum class SvmKernel { kLinear, kRbf };

/// ε-SVR hyper-parameters.
struct SvrParams {
  SvmKernel kernel = SvmKernel::kRbf;
  /// RBF width; <= 0 means the "scale" heuristic 1 / (p · Var(X)).
  double gamma = -1.0;
  /// Regularisation trade-off (larger C = less regularisation).
  double c = 10.0;
  /// ε-insensitive tube half-width, in standardised-target units.
  double epsilon = 0.05;
  int epochs = 200;
  uint64_t seed = 31;
};

/// Kernel ε-insensitive support vector regression trained with a
/// Pegasos-style stochastic subgradient method in the kernel dual
/// (Shalev-Shwartz et al.; the kernelised variant keeps one coefficient per
/// training point). Inputs and the target are standardised internally, which
/// makes the default C/ε/γ work across the paper's throughput scales.
class SvmRegressor : public Regressor {
 public:
  explicit SvmRegressor(SvrParams params = {}) : params_(params) {}

  Status Fit(const Matrix& x, const Vector& y) override;
  Result<double> Predict(const Vector& row) const override;
  bool fitted() const override { return fitted_; }

  /// Number of training points with non-zero dual coefficient.
  size_t NumSupportVectors() const;

 private:
  double Kernel(const double* a, const double* b) const;

  SvrParams params_;
  StandardScaler x_scaler_;
  TargetScaler y_scaler_;
  Matrix support_;   // standardised training rows
  Vector beta_;      // dual coefficients
  double gamma_ = 1.0;
  bool fitted_ = false;
};

}  // namespace wpred

#endif  // WPRED_ML_SVR_H_
