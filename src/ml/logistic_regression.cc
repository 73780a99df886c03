#include "ml/logistic_regression.h"

#include <algorithm>
#include <cmath>

namespace wpred {

Status LogisticRegression::Fit(const Matrix& x, const std::vector<int>& y) {
  if (x.rows() == 0 || x.cols() == 0) {
    return Status::InvalidArgument("empty design matrix");
  }
  if (x.rows() != y.size()) {
    return Status::InvalidArgument("row count mismatch between x and y");
  }
  fitted_ = false;

  int max_label = 0;
  for (int label : y) {
    if (label < 0) return Status::InvalidArgument("labels must be >= 0");
    max_label = std::max(max_label, label);
  }
  num_classes_ = max_label + 1;
  if (num_classes_ < 2) {
    return Status::InvalidArgument("need at least two classes");
  }

  const Matrix xs = scaler_.FitTransform(x);
  const size_t n = xs.rows();
  const size_t p = xs.cols();
  const size_t k = static_cast<size_t>(num_classes_);
  // Feature j's column is xt[j·n, (j+1)·n): the score pass runs lanes across
  // rows instead of one serial chain of adds per (row, class).
  const std::vector<double> xt = xs.ColumnMajor();

  weights_ = Matrix(k, p);
  bias_.assign(k, 0.0);
  Matrix vel_w(k, p);
  Vector vel_b(k, 0.0);
  const double momentum = 0.9;

  // scores[c·n + r] holds class c's score for row r, then its softmax error.
  // Every buffer is allocated once per fit and zeroed in place.
  std::vector<double> scores(k * n);
  Matrix grad_w(k, p);
  Vector grad_b(k);
  for (int iter = 0; iter < max_iter_; ++iter) {
    // Each row still adds the bias, then its features in j order, so every
    // score is bit-equal to the row-at-a-time dot product.
    for (size_t c = 0; c < k; ++c) {
      double* s = scores.data() + c * n;
      std::fill(s, s + n, bias_[c]);
      for (size_t j = 0; j < p; ++j) {
        const double w = weights_(c, j);
        const double* col = xt.data() + j * n;
        for (size_t r = 0; r < n; ++r) s[r] += w * col[r];
      }
    }
    std::fill(grad_w.data().begin(), grad_w.data().end(), 0.0);
    std::fill(grad_b.begin(), grad_b.end(), 0.0);
    for (size_t r = 0; r < n; ++r) {
      // Softmax over class scores; gradients accumulate in row order.
      double max_score = -1e300;
      for (size_t c = 0; c < k; ++c) {
        max_score = std::max(max_score, scores[c * n + r]);
      }
      double z = 0.0;
      for (size_t c = 0; c < k; ++c) {
        double& e = scores[c * n + r];
        e = std::exp(e - max_score);
        z += e;
      }
      const double* x_row = xs.data().data() + r * p;
      for (size_t c = 0; c < k; ++c) {
        const double err =
            scores[c * n + r] / z - (static_cast<int>(c) == y[r] ? 1.0 : 0.0);
        grad_b[c] += err;
        double* g = grad_w.data().data() + c * p;
        for (size_t j = 0; j < p; ++j) g[j] += err * x_row[j];
      }
    }
    const double inv_n = 1.0 / static_cast<double>(n);
    for (size_t c = 0; c < k; ++c) {
      for (size_t j = 0; j < p; ++j) {
        const double g = grad_w(c, j) * inv_n + l2_ * weights_(c, j);
        vel_w(c, j) = momentum * vel_w(c, j) - learning_rate_ * g;
        weights_(c, j) += vel_w(c, j);
      }
      vel_b[c] = momentum * vel_b[c] - learning_rate_ * grad_b[c] * inv_n;
      bias_[c] += vel_b[c];
    }
  }
  fitted_ = true;
  return Status::OK();
}

Vector LogisticRegression::Scores(const Vector& standardized_row) const {
  Vector scores(static_cast<size_t>(num_classes_));
  for (size_t c = 0; c < scores.size(); ++c) {
    double score = bias_[c];
    for (size_t j = 0; j < standardized_row.size(); ++j) {
      score += weights_(c, j) * standardized_row[j];
    }
    scores[c] = score;
  }
  return scores;
}

Result<Vector> LogisticRegression::PredictProba(const Vector& row) const {
  if (!fitted_) return Status::FailedPrecondition("model not fitted");
  if (row.size() != weights_.cols()) {
    return Status::InvalidArgument("feature arity mismatch");
  }
  Vector scores = Scores(scaler_.TransformRow(row));
  const double max_score = *std::max_element(scores.begin(), scores.end());
  double z = 0.0;
  for (double& s : scores) {
    s = std::exp(s - max_score);
    z += s;
  }
  for (double& s : scores) s /= z;
  return scores;
}

Result<int> LogisticRegression::Predict(const Vector& row) const {
  WPRED_ASSIGN_OR_RETURN(Vector probs, PredictProba(row));
  return static_cast<int>(std::max_element(probs.begin(), probs.end()) -
                          probs.begin());
}

Result<Vector> LogisticRegression::FeatureImportances() const {
  if (!fitted_) return Status::FailedPrecondition("model not fitted");
  Vector importances(weights_.cols(), 0.0);
  for (size_t j = 0; j < weights_.cols(); ++j) {
    for (size_t c = 0; c < weights_.rows(); ++c) {
      importances[j] += std::fabs(weights_(c, j));
    }
    importances[j] /= static_cast<double>(weights_.rows());
  }
  return importances;
}

}  // namespace wpred
