// Differential tests for LogisticRegression::Fit, which scores rows in
// vector lanes over a column-major copy of the standardised inputs, against
// the row-at-a-time oracle in reference_kernels.h. Every comparison is
// bitwise: the lanes keep each row's feature order, so no tolerance is owed.

#include <algorithm>
#include <cstring>
#include <numeric>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "featsel/wrapper.h"
#include "linalg/stats.h"
#include "ml/logistic_regression.h"
#include "reference_kernels.h"

namespace wpred {
namespace {

bool SameBits(const Vector& a, const Vector& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

struct Problem {
  Matrix x;
  std::vector<int> y;
};

// n rows × p features with labels in [0, k). Row 0 carries label k − 1, so
// every problem has k classes; the other labels are random and shift the
// feature means, so the weights move away from zero.
Problem MakeProblem(size_t n, size_t p, int k, uint64_t seed) {
  Rng rng(seed);
  Problem problem{Matrix(n, p), std::vector<int>(n)};
  for (size_t r = 0; r < n; ++r) {
    const int label =
        r == 0 ? k - 1 : static_cast<int>(rng.UniformInt(0, k - 1));
    problem.y[r] = label;
    for (size_t j = 0; j < p; ++j) {
      const double shift = (static_cast<int>(j) % k == label) ? 1.5 : 0.0;
      problem.x(r, j) = (1.0 + static_cast<double>(j)) *
                        (shift + rng.Gaussian(0.0, 1.0));
    }
  }
  return problem;
}

// Fits both implementations and compares weights, bias, importances and the
// class probabilities of every training row.
void ExpectFitMatchesOracle(const Problem& problem, double l2, int max_iter,
                            double learning_rate, const std::string& label) {
  SCOPED_TRACE(label);
  LogisticRegression model(l2, max_iter, learning_rate);
  ASSERT_TRUE(model.Fit(problem.x, problem.y).ok());
  const reference::LogisticRegressionModel oracle =
      reference::LogisticRegressionFit(problem.x, problem.y, l2, max_iter,
                                       learning_rate);
  EXPECT_TRUE(SameBits(model.weights().data(), oracle.weights.data()));
  EXPECT_TRUE(SameBits(model.bias(), oracle.bias));
  const Result<Vector> importances = model.FeatureImportances();
  ASSERT_TRUE(importances.ok());
  EXPECT_TRUE(SameBits(*importances,
                       reference::LogisticRegressionImportances(oracle)));
  for (size_t r = 0; r < problem.x.rows(); ++r) {
    const Vector row = problem.x.Row(r);
    const Result<Vector> proba = model.PredictProba(row);
    ASSERT_TRUE(proba.ok());
    EXPECT_TRUE(
        SameBits(*proba, reference::LogisticRegressionProba(oracle, row)))
        << "row " << r;
  }
}

TEST(LogisticRegressionOracleTest, FitBitEqualAcrossShapes) {
  uint64_t seed = 100;
  for (const int k : {2, 3, 4, 6}) {
    for (const size_t p : {1, 2, 7, 29, 33}) {
      for (const size_t n : {1, 7, 8, 9, 200}) {
        const Problem problem = MakeProblem(n, p, k, seed++);
        ExpectFitMatchesOracle(problem, 1e-3, 40, 0.5,
                               "k=" + std::to_string(k) +
                                   " p=" + std::to_string(p) +
                                   " n=" + std::to_string(n));
      }
    }
  }
}

// Repeated rows, a constant column (standardised to zeros) and the default
// 300 iterations.
TEST(LogisticRegressionOracleTest, FitBitEqualWithDuplicateRows) {
  const Problem base = MakeProblem(30, 6, 3, 7);
  Problem problem{Matrix(90, 7), std::vector<int>(90)};
  for (size_t r = 0; r < 90; ++r) {
    const size_t src = r % 30;
    for (size_t j = 0; j < 6; ++j) problem.x(r, j) = base.x(src, j);
    problem.x(r, 6) = 4.0;
    problem.y[r] = base.y[src];
  }
  ExpectFitMatchesOracle(problem, 1e-3, 300, 0.5, "duplicates");
}

// A large step on separable data drives the scores far apart, so some
// losing class's exp underflows to a probability of exactly 0.
TEST(LogisticRegressionOracleTest, FitBitEqualWithSaturatedSoftmax) {
  Problem problem{Matrix(40, 2), std::vector<int>(40)};
  for (size_t r = 0; r < 40; ++r) {
    const int label = static_cast<int>(r % 4);
    problem.y[r] = label;
    problem.x(r, 0) = 100.0 * label + static_cast<double>(r % 3);
    problem.x(r, 1) = -50.0 * label;
  }
  ExpectFitMatchesOracle(problem, 0.0, 200, 50.0, "saturated");
  LogisticRegression model(0.0, 200, 50.0);
  ASSERT_TRUE(model.Fit(problem.x, problem.y).ok());
  long underflows = 0;
  for (size_t r = 0; r < problem.x.rows(); ++r) {
    const Result<Vector> proba = model.PredictProba(problem.x.Row(r));
    ASSERT_TRUE(proba.ok());
    underflows += std::count(proba->begin(), proba->end(), 0.0);
  }
  EXPECT_GT(underflows, 0);
}

// One full RFE LogReg sweep, 29 → 1 features: every elimination step's
// importance vector equals the oracle's, and so does RfeSelector's final
// ranking.
TEST(LogisticRegressionOracleTest, RfeLogRegSweepBitEqual) {
  const Problem problem = MakeProblem(240, 29, 2, 29);
  StandardScaler scaler;
  const Matrix xs = scaler.FitTransform(problem.x);
  std::vector<size_t> remaining(xs.cols());
  std::iota(remaining.begin(), remaining.end(), 0);
  std::vector<int> ranks(xs.cols(), 0);
  while (remaining.size() > 1) {
    SCOPED_TRACE("features=" + std::to_string(remaining.size()));
    const Matrix subset = xs.SelectCols(remaining);
    // RfeSelector's estimator: L2 1e-3, 80 iterations.
    LogisticRegression model(1e-3, 80);
    ASSERT_TRUE(model.Fit(subset, problem.y).ok());
    const Result<Vector> importances = model.FeatureImportances();
    ASSERT_TRUE(importances.ok());
    const Vector expected = reference::LogisticRegressionImportances(
        reference::LogisticRegressionFit(subset, problem.y, 1e-3, 80));
    ASSERT_TRUE(SameBits(*importances, expected));
    const size_t weakest = static_cast<size_t>(
        std::min_element(expected.begin(), expected.end()) - expected.begin());
    ranks[remaining[weakest]] = static_cast<int>(remaining.size());
    remaining.erase(remaining.begin() + static_cast<long>(weakest));
  }
  ranks[remaining[0]] = 1;

  RfeSelector rfe(WrapperEstimator::kLogReg);
  const Result<Vector> scores = rfe.ScoreFeatures(problem.x, problem.y);
  ASSERT_TRUE(scores.ok());
  ASSERT_EQ(scores->size(), ranks.size());
  for (size_t f = 0; f < ranks.size(); ++f) {
    EXPECT_EQ((*scores)[f], static_cast<double>(ranks.size() - ranks[f]))
        << "feature " << f;
  }
}

}  // namespace
}  // namespace wpred
