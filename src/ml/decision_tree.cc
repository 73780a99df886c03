#include "ml/decision_tree.h"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace wpred {
namespace internal {
namespace {

// Split candidate evaluation result.
struct BestSplit {
  int feature = -1;
  double threshold = 0.0;
  double gain = 0.0;  // impurity decrease, weighted by node share
};

class TreeBuilder {
 public:
  TreeBuilder(const Matrix& x, const Vector& y, bool classification,
              int num_classes, const TreeParams& params)
      : x_(x),
        y_(y),
        classification_(classification),
        num_classes_(num_classes),
        params_(params),
        rng_(params.seed) {}

  FittedTree Build(const std::vector<size_t>& row_indices) {
    WPRED_DCHECK_EQ(x_.rows(), y_.size()) << "design/target row mismatch";
    FittedTree tree;
    tree.num_features = x_.cols();
    tree.importances.assign(x_.cols(), 0.0);
    tree_ = &tree;
    total_samples_ = static_cast<double>(row_indices.size());
    std::vector<size_t> indices = row_indices;
    BuildNode(indices, 0);
    double total = 0.0;
    for (double v : tree.importances) total += v;
    if (total > 0.0) {
      for (double& v : tree.importances) v /= total;
    }
    return tree;
  }

 private:
  double LeafValue(const std::vector<size_t>& indices) const {
    if (classification_) {
      std::vector<size_t> counts(num_classes_, 0);
      for (size_t i : indices) {
        WPRED_DCHECK_LT(y_[i], num_classes_) << "label out of range";
        WPRED_DCHECK_GE(y_[i], 0.0);
        ++counts[static_cast<size_t>(y_[i])];
      }
      return static_cast<double>(std::max_element(counts.begin(), counts.end()) -
                                 counts.begin());
    }
    double mean = 0.0;
    for (size_t i : indices) mean += y_[i];
    return indices.empty() ? 0.0 : mean / static_cast<double>(indices.size());
  }

  // Node impurity: Gini for classification, variance for regression.
  double Impurity(const std::vector<size_t>& indices) const {
    const double n = static_cast<double>(indices.size());
    if (indices.empty()) return 0.0;
    if (classification_) {
      std::vector<double> counts(num_classes_, 0.0);
      for (size_t i : indices) counts[static_cast<size_t>(y_[i])] += 1.0;
      double gini = 1.0;
      for (double c : counts) gini -= (c / n) * (c / n);
      return gini;
    }
    double mean = 0.0;
    for (size_t i : indices) mean += y_[i];
    mean /= n;
    double var = 0.0;
    for (size_t i : indices) var += (y_[i] - mean) * (y_[i] - mean);
    return var / n;
  }

  BestSplit FindBestSplit(const std::vector<size_t>& indices) {
    BestSplit best;
    const double parent_impurity = Impurity(indices);
    if (parent_impurity <= 1e-15) return best;
    const double n = static_cast<double>(indices.size());

    std::vector<size_t> features(x_.cols());
    std::iota(features.begin(), features.end(), 0);
    if (params_.max_features > 0 && params_.max_features < x_.cols()) {
      // Random subspace: shuffle then truncate.
      for (size_t i = features.size(); i > 1; --i) {
        const size_t j = static_cast<size_t>(
            rng_.UniformInt(0, static_cast<int64_t>(i) - 1));
        std::swap(features[i - 1], features[j]);
      }
      features.resize(params_.max_features);
    }

    std::vector<std::pair<double, double>> ordered(indices.size());
    for (size_t feature : features) {
      for (size_t k = 0; k < indices.size(); ++k) {
        ordered[k] = {x_(indices[k], feature), y_[indices[k]]};
      }
      std::sort(ordered.begin(), ordered.end());
      if (ordered.front().first == ordered.back().first) continue;

      if (classification_) {
        std::vector<double> left_counts(num_classes_, 0.0);
        std::vector<double> right_counts(num_classes_, 0.0);
        for (const auto& [xv, yv] : ordered) {
          right_counts[static_cast<size_t>(yv)] += 1.0;
        }
        for (size_t k = 0; k + 1 < ordered.size(); ++k) {
          const size_t cls = static_cast<size_t>(ordered[k].second);
          left_counts[cls] += 1.0;
          right_counts[cls] -= 1.0;
          if (ordered[k].first == ordered[k + 1].first) continue;
          const double nl = static_cast<double>(k + 1);
          const double nr = n - nl;
          if (nl < params_.min_samples_leaf || nr < params_.min_samples_leaf) {
            continue;
          }
          double gini_l = 1.0, gini_r = 1.0;
          for (int c = 0; c < num_classes_; ++c) {
            gini_l -= (left_counts[c] / nl) * (left_counts[c] / nl);
            gini_r -= (right_counts[c] / nr) * (right_counts[c] / nr);
          }
          const double child = (nl * gini_l + nr * gini_r) / n;
          const double gain = parent_impurity - child;
          if (gain > best.gain) {
            best = {static_cast<int>(feature),
                    0.5 * (ordered[k].first + ordered[k + 1].first), gain};
          }
        }
      } else {
        double right_sum = 0.0, right_sq = 0.0;
        for (const auto& [xv, yv] : ordered) {
          right_sum += yv;
          right_sq += yv * yv;
        }
        double left_sum = 0.0, left_sq = 0.0;
        for (size_t k = 0; k + 1 < ordered.size(); ++k) {
          const double yv = ordered[k].second;
          left_sum += yv;
          left_sq += yv * yv;
          right_sum -= yv;
          right_sq -= yv * yv;
          if (ordered[k].first == ordered[k + 1].first) continue;
          const double nl = static_cast<double>(k + 1);
          const double nr = n - nl;
          if (nl < params_.min_samples_leaf || nr < params_.min_samples_leaf) {
            continue;
          }
          const double var_l = left_sq / nl - (left_sum / nl) * (left_sum / nl);
          const double var_r =
              right_sq / nr - (right_sum / nr) * (right_sum / nr);
          const double child = (nl * var_l + nr * var_r) / n;
          const double gain = parent_impurity - child;
          if (gain > best.gain) {
            best = {static_cast<int>(feature),
                    0.5 * (ordered[k].first + ordered[k + 1].first), gain};
          }
        }
      }
    }
    return best;
  }

  int BuildNode(std::vector<size_t>& indices, int depth) {
    const int node_id = static_cast<int>(tree_->nodes.size());
    tree_->nodes.emplace_back();
    tree_->nodes[node_id].value = LeafValue(indices);

    if (depth >= params_.max_depth ||
        indices.size() < params_.min_samples_split) {
      return node_id;
    }
    const BestSplit split = FindBestSplit(indices);
    if (split.feature < 0 || split.gain <= 0.0) return node_id;

    std::vector<size_t> left, right;
    left.reserve(indices.size());
    right.reserve(indices.size());
    for (size_t i : indices) {
      (x_(i, static_cast<size_t>(split.feature)) <= split.threshold ? left
                                                                    : right)
          .push_back(i);
    }
    if (left.empty() || right.empty()) return node_id;

    tree_->importances[static_cast<size_t>(split.feature)] +=
        split.gain * static_cast<double>(indices.size()) / total_samples_;

    indices.clear();
    indices.shrink_to_fit();
    const int left_id = BuildNode(left, depth + 1);
    const int right_id = BuildNode(right, depth + 1);
    tree_->nodes[node_id].feature = split.feature;
    tree_->nodes[node_id].threshold = split.threshold;
    tree_->nodes[node_id].left = left_id;
    tree_->nodes[node_id].right = right_id;
    return node_id;
  }

  const Matrix& x_;
  const Vector& y_;
  bool classification_;
  int num_classes_;
  TreeParams params_;
  Rng rng_;
  FittedTree* tree_ = nullptr;
  double total_samples_ = 0.0;
};

}  // namespace

double FittedTree::Evaluate(const Vector& row) const {
  WPRED_CHECK(!nodes.empty());
  WPRED_DCHECK_EQ(row.size(), num_features) << "feature arity mismatch";
  int node = 0;
  while (nodes[node].feature >= 0) {
    const TreeNode& n = nodes[node];
    WPRED_DCHECK_LT(static_cast<size_t>(n.feature), row.size());
    node = row[static_cast<size_t>(n.feature)] <= n.threshold ? n.left
                                                              : n.right;
    WPRED_DCHECK_GE(node, 0);
    WPRED_DCHECK_LT(static_cast<size_t>(node), nodes.size());
  }
  return nodes[node].value;
}

FittedTree BuildTree(const Matrix& x, const Vector& y, bool classification,
                     int num_classes, const TreeParams& params,
                     const std::vector<size_t>& row_indices) {
  TreeBuilder builder(x, y, classification, num_classes, params);
  return builder.Build(row_indices);
}

}  // namespace internal

namespace {

std::vector<size_t> AllRows(size_t n) {
  std::vector<size_t> idx(n);
  std::iota(idx.begin(), idx.end(), 0);
  return idx;
}

Status ValidateProblem(const Matrix& x, size_t y_size) {
  if (x.rows() == 0 || x.cols() == 0) {
    return Status::InvalidArgument("empty design matrix");
  }
  if (x.rows() != y_size) {
    return Status::InvalidArgument("row count mismatch between x and y");
  }
  return Status::OK();
}

}  // namespace

Status DecisionTreeClassifier::Fit(const Matrix& x, const std::vector<int>& y) {
  WPRED_RETURN_IF_ERROR(ValidateProblem(x, y.size()));
  int max_label = 0;
  for (int label : y) {
    if (label < 0) return Status::InvalidArgument("labels must be >= 0");
    max_label = std::max(max_label, label);
  }
  num_classes_ = max_label + 1;
  Vector y_double(y.begin(), y.end());
  tree_ = internal::BuildTree(x, y_double, /*classification=*/true,
                              num_classes_, params_, AllRows(x.rows()));
  return Status::OK();
}

Result<int> DecisionTreeClassifier::Predict(const Vector& row) const {
  if (!fitted()) return Status::FailedPrecondition("model not fitted");
  if (row.size() != tree_.num_features) {
    return Status::InvalidArgument("feature arity mismatch");
  }
  return static_cast<int>(tree_.Evaluate(row));
}

Result<Vector> DecisionTreeClassifier::FeatureImportances() const {
  if (!fitted()) return Status::FailedPrecondition("model not fitted");
  return tree_.importances;
}

}  // namespace wpred
