#ifndef WPRED_ML_LOGISTIC_REGRESSION_H_
#define WPRED_ML_LOGISTIC_REGRESSION_H_

#include <vector>

#include "linalg/stats.h"
#include "ml/model.h"

namespace wpred {

/// Multinomial (softmax) logistic regression trained with full-batch
/// gradient descent plus momentum on internally standardised inputs, with L2
/// regularisation. Binary problems use the same machinery with two classes.
class LogisticRegression : public Classifier {
 public:
  explicit LogisticRegression(double l2 = 1e-3, int max_iter = 300,
                              double learning_rate = 0.5)
      : l2_(l2), max_iter_(max_iter), learning_rate_(learning_rate) {}

  Status Fit(const Matrix& x, const std::vector<int>& y) override;
  Result<int> Predict(const Vector& row) const override;
  bool fitted() const override { return fitted_; }

  /// Per-feature importance: mean |weight| across classes (weights live in
  /// the standardised space, so magnitudes are comparable).
  Result<Vector> FeatureImportances() const override;

  /// Class probabilities for one observation.
  Result<Vector> PredictProba(const Vector& row) const;

  int num_classes() const { return num_classes_; }
  /// Fitted weights (num_classes x num_features, standardised space) and
  /// per-class bias.
  const Matrix& weights() const { return weights_; }
  const Vector& bias() const { return bias_; }

 private:
  Vector Scores(const Vector& standardized_row) const;

  double l2_;
  int max_iter_;
  double learning_rate_;

  StandardScaler scaler_;
  Matrix weights_;  // num_classes x num_features
  Vector bias_;     // num_classes
  int num_classes_ = 0;
  bool fitted_ = false;
};

}  // namespace wpred

#endif  // WPRED_ML_LOGISTIC_REGRESSION_H_
