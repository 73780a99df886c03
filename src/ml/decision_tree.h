#ifndef WPRED_ML_DECISION_TREE_H_
#define WPRED_ML_DECISION_TREE_H_

#include <vector>

#include "common/rng.h"
#include "ml/model.h"

namespace wpred {

/// Hyper-parameters shared by the CART learners.
struct TreeParams {
  int max_depth = 12;
  size_t min_samples_leaf = 1;
  size_t min_samples_split = 2;
  /// Features examined per split; 0 means all (random forests subsample).
  size_t max_features = 0;
  /// Seed for feature subsampling (only used when max_features > 0).
  uint64_t seed = 0;
};

namespace internal {

/// Flat binary tree shared by the regression and classification learners.
struct TreeNode {
  int feature = -1;      // -1 for leaves
  double threshold = 0.0;
  int left = -1;
  int right = -1;
  double value = 0.0;    // mean target (regression) or majority class id
};

struct FittedTree {
  std::vector<TreeNode> nodes;
  Vector importances;  // impurity-decrease per feature, normalised to sum 1
  size_t num_features = 0;

  double Evaluate(const Vector& row) const;
};

/// Builds a CART tree. `classification` selects Gini impurity over variance;
/// labels must then be integral values in [0, num_classes).
FittedTree BuildTree(const Matrix& x, const Vector& y, bool classification,
                     int num_classes, const TreeParams& params,
                     const std::vector<size_t>& row_indices);

}  // namespace internal

/// CART classification tree (Gini splits, majority-vote leaves).
class DecisionTreeClassifier : public Classifier {
 public:
  explicit DecisionTreeClassifier(TreeParams params = {}) : params_(params) {}

  Status Fit(const Matrix& x, const std::vector<int>& y) override;
  Result<int> Predict(const Vector& row) const override;
  bool fitted() const override { return !tree_.nodes.empty(); }
  Result<Vector> FeatureImportances() const override;

  int num_classes() const { return num_classes_; }

 private:
  TreeParams params_;
  internal::FittedTree tree_;
  int num_classes_ = 0;
};

}  // namespace wpred

#endif  // WPRED_ML_DECISION_TREE_H_
