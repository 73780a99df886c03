#ifndef WPRED_ML_RANDOM_FOREST_H_
#define WPRED_ML_RANDOM_FOREST_H_

#include <vector>

#include "ml/decision_tree.h"
#include "ml/model.h"

namespace wpred {

/// Random-forest hyper-parameters.
struct ForestParams {
  int num_trees = 100;
  int max_depth = 12;
  size_t min_samples_leaf = 1;
  /// Features per split; 0 means sqrt(p) (the usual classification
  /// default).
  size_t max_features = 0;
  uint64_t seed = 17;
  /// Worker threads for per-tree fitting; < 1 means the process default
  /// (WPRED_THREADS), 1 forces the serial path. Every tree derives its RNG
  /// streams from `seed` and its own index, so the fitted forest is
  /// bit-identical at any thread count.
  int num_threads = 0;
};

/// Bagged CART classification forest with feature subsampling (majority
/// vote). Importances are the mean impurity-decrease importance over trees
/// (the embedded feature-selection signal in Section 4.1.2).
class RandomForestClassifier : public Classifier {
 public:
  explicit RandomForestClassifier(ForestParams params = {}) : params_(params) {}

  Status Fit(const Matrix& x, const std::vector<int>& y) override;
  Result<int> Predict(const Vector& row) const override;
  bool fitted() const override { return !trees_.empty(); }
  Result<Vector> FeatureImportances() const override;

 private:
  ForestParams params_;
  std::vector<internal::FittedTree> trees_;
  size_t num_features_ = 0;
  int num_classes_ = 0;
};

}  // namespace wpred

#endif  // WPRED_ML_RANDOM_FOREST_H_
