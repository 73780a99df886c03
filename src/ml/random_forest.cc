#include "ml/random_forest.h"

#include <algorithm>
#include <cmath>

#include "common/parallel.h"
#include "common/rng.h"
#include "obs/metrics.h"

namespace wpred {
namespace {

Status ValidateProblem(const Matrix& x, size_t y_size, int num_trees) {
  if (x.rows() == 0 || x.cols() == 0) {
    return Status::InvalidArgument("empty design matrix");
  }
  if (x.rows() != y_size) {
    return Status::InvalidArgument("row count mismatch between x and y");
  }
  if (num_trees < 1) return Status::InvalidArgument("num_trees must be >= 1");
  return Status::OK();
}

std::vector<size_t> BootstrapSample(size_t n, Rng& rng) {
  std::vector<size_t> sample(n);
  for (size_t i = 0; i < n; ++i) {
    sample[i] = static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(n) - 1));
  }
  return sample;
}

Vector MeanImportances(const std::vector<internal::FittedTree>& trees,
                       size_t num_features) {
  Vector importances(num_features, 0.0);
  for (const auto& tree : trees) {
    for (size_t f = 0; f < num_features; ++f) {
      importances[f] += tree.importances[f];
    }
  }
  for (double& v : importances) v /= static_cast<double>(trees.size());
  return importances;
}

}  // namespace

Status RandomForestClassifier::Fit(const Matrix& x, const std::vector<int>& y) {
  WPRED_RETURN_IF_ERROR(ValidateProblem(x, y.size(), params_.num_trees));
  trees_.clear();
  num_features_ = x.cols();

  int max_label = 0;
  for (int label : y) {
    if (label < 0) return Status::InvalidArgument("labels must be >= 0");
    max_label = std::max(max_label, label);
  }
  num_classes_ = max_label + 1;

  TreeParams tree_params;
  tree_params.max_depth = params_.max_depth;
  tree_params.min_samples_leaf = params_.min_samples_leaf;
  tree_params.max_features =
      params_.max_features > 0
          ? params_.max_features
          : std::max<size_t>(1, static_cast<size_t>(std::sqrt(
                                    static_cast<double>(x.cols()))));

  const Vector y_double(y.begin(), y.end());
  // Each tree forks two independent streams off the forest seed: tag 2t for
  // the bootstrap row draws, tag 2t+1 for the tree's internal feature
  // subsampling. (Sharing one stream for both replays identical draws and
  // correlates bagging with split selection.) Tags depend only on the tree
  // index t — never on the thread or sibling trees — so parallel fitting
  // into preallocated slots stays bit-identical to serial.
  const Rng rng(params_.seed);
  trees_.resize(static_cast<size_t>(params_.num_trees));
  WPRED_RETURN_IF_ERROR(ParallelFor(
      static_cast<size_t>(params_.num_trees), params_.num_threads,
      [&](size_t t) -> Status {
        TreeParams tp = tree_params;
        Rng bootstrap_rng = rng.Fork(2 * t);
        tp.seed = rng.Fork(2 * t + 1).seed();
        const std::vector<size_t> sample =
            BootstrapSample(x.rows(), bootstrap_rng);
        trees_[t] = internal::BuildTree(x, y_double, /*classification=*/true,
                                        num_classes_, tp, sample);
        WPRED_COUNT_ADD("ml.rf.trees_fit", 1);
        return Status::OK();
      }));
  WPRED_COUNT_ADD("ml.rf.fits", 1);
  return Status::OK();
}

Result<int> RandomForestClassifier::Predict(const Vector& row) const {
  if (!fitted()) return Status::FailedPrecondition("model not fitted");
  if (row.size() != num_features_) {
    return Status::InvalidArgument("feature arity mismatch");
  }
  std::vector<int> votes(static_cast<size_t>(num_classes_), 0);
  for (const auto& tree : trees_) {
    ++votes[static_cast<size_t>(tree.Evaluate(row))];
  }
  return static_cast<int>(std::max_element(votes.begin(), votes.end()) -
                          votes.begin());
}

Result<Vector> RandomForestClassifier::FeatureImportances() const {
  if (!fitted()) return Status::FailedPrecondition("model not fitted");
  return MeanImportances(trees_, num_features_);
}

}  // namespace wpred
