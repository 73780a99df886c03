// Parameterized property suite for the regression model zoo: every model
// behind the paper's strategies must fit clean linear data well, be
// deterministic, be safely re-fittable, and reject malformed inputs — and
// the elastic distance measures must obey their parameter semantics across
// sweeps.

#include <cmath>
#include <functional>
#include <memory>
#include <ostream>
#include <string>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "ml/decision_tree.h"
#include "ml/gradient_boosting.h"
#include "ml/lasso.h"
#include "ml/linear_regression.h"
#include "ml/mars.h"
#include "ml/metrics.h"
#include "ml/mlp.h"
#include "ml/random_forest.h"
#include "ml/svr.h"
#include "similarity/dtw.h"
#include "similarity/lcss.h"

namespace wpred {
namespace {

struct ModelCase {
  std::string name;
  std::function<std::unique_ptr<Regressor>()> make;
  double max_nrmse;  // tolerated training NRMSE on clean linear data
};

// Without this, gtest lists each case as a raw byte dump of ModelCase, which
// holds heap pointers; gtest_discover_tests copies that dump into the ctest
// name, so the names changed with every build under ASLR.
void PrintTo(const ModelCase& c, std::ostream* os) { *os << c.name; }

class RegressorProperty : public ::testing::TestWithParam<ModelCase> {
 protected:
  static void MakeLinearData(size_t n, Matrix* x, Vector* y, uint64_t seed) {
    Rng rng(seed);
    *x = Matrix(n, 2);
    y->resize(n);
    for (size_t i = 0; i < n; ++i) {
      (*x)(i, 0) = rng.Uniform(0, 10);
      (*x)(i, 1) = rng.Uniform(-5, 5);
      (*y)[i] = 7.0 + 3.0 * (*x)(i, 0) - 2.0 * (*x)(i, 1);
    }
  }
};

TEST_P(RegressorProperty, FitsCleanLinearData) {
  Matrix x;
  Vector y;
  MakeLinearData(160, &x, &y, 1);
  auto model = GetParam().make();
  ASSERT_TRUE(model->Fit(x, y).ok());
  const Vector pred = model->PredictBatch(x).value();
  EXPECT_LT(Nrmse(y, pred), GetParam().max_nrmse) << GetParam().name;
}

TEST_P(RegressorProperty, DeterministicAcrossInstances) {
  Matrix x;
  Vector y;
  MakeLinearData(80, &x, &y, 2);
  auto a = GetParam().make();
  auto b = GetParam().make();
  ASSERT_TRUE(a->Fit(x, y).ok());
  ASSERT_TRUE(b->Fit(x, y).ok());
  const Vector row = {3.0, 1.0};
  EXPECT_DOUBLE_EQ(a->Predict(row).value(), b->Predict(row).value())
      << GetParam().name;
}

TEST_P(RegressorProperty, RefitDiscardsPreviousState) {
  Matrix x;
  Vector y;
  MakeLinearData(80, &x, &y, 3);
  auto fresh = GetParam().make();
  auto reused = GetParam().make();
  // Train `reused` on garbage first, then on the real data.
  Matrix junk(20, 2, 1.0);
  Vector junk_y(20, 1e6);
  ASSERT_TRUE(reused->Fit(junk, junk_y).ok());
  ASSERT_TRUE(fresh->Fit(x, y).ok());
  ASSERT_TRUE(reused->Fit(x, y).ok());
  const Vector row = {5.0, -2.0};
  EXPECT_DOUBLE_EQ(fresh->Predict(row).value(), reused->Predict(row).value())
      << GetParam().name;
}

TEST_P(RegressorProperty, RejectsMalformedInput) {
  auto model = GetParam().make();
  EXPECT_FALSE(model->Fit(Matrix(), {}).ok()) << GetParam().name;
  EXPECT_FALSE(model->Fit(Matrix{{1.0, 2.0}}, {1.0, 2.0}).ok());
  EXPECT_FALSE(model->Predict({1.0, 2.0}).ok());  // unfitted
  Matrix x;
  Vector y;
  MakeLinearData(40, &x, &y, 4);
  ASSERT_TRUE(model->Fit(x, y).ok());
  EXPECT_FALSE(model->Predict({1.0}).ok());  // wrong arity
}

std::vector<ModelCase> RegressorCases() {
  return {
      {"LinearRegression", [] { return std::make_unique<LinearRegression>(); },
       1e-6},
      {"Lasso001", [] { return std::make_unique<Lasso>(0.01); }, 0.02},
      {"ElasticNet",
       [] { return std::make_unique<ElasticNet>(0.01, 0.5); }, 0.05},
      {"DecisionTree",
       [] { return std::make_unique<DecisionTreeRegressor>(); }, 0.05},
      {"RandomForest",
       [] {
         ForestParams params;
         params.num_trees = 30;
         return std::make_unique<RandomForestRegressor>(params);
       },
       0.10},
      {"GradientBoosting",
       [] { return std::make_unique<GradientBoostingRegressor>(); }, 0.05},
      {"Svr", [] { return std::make_unique<SvmRegressor>(); }, 0.15},
      {"Mars", [] { return std::make_unique<MarsRegressor>(); }, 0.02},
      {"MlpSmall",
       [] {
         MlpParams params;
         params.hidden_layers = {32};
         params.epochs = 200;
         return std::make_unique<MlpRegressor>(params);
       },
       0.20},
  };
}

INSTANTIATE_TEST_SUITE_P(ModelZoo, RegressorProperty,
                         ::testing::ValuesIn(RegressorCases()),
                         [](const auto& info) { return info.param.name; });

// --- Elastic-measure parameter sweeps ---------------------------------------

class DtwWindowSweep : public ::testing::TestWithParam<int> {};

TEST_P(DtwWindowSweep, WiderWindowsNeverIncreaseDistance) {
  Rng rng(5);
  Vector a(60), b(60);
  for (size_t i = 0; i < 60; ++i) {
    a[i] = std::sin(0.2 * i) + rng.Gaussian(0, 0.05);
    b[i] = std::sin(0.2 * i + 0.8) + rng.Gaussian(0, 0.05);
  }
  const int window = GetParam();
  const double narrow = DtwDistance(a, b, window).value();
  const double wider = DtwDistance(a, b, window + 5).value();
  const double unbounded = DtwDistance(a, b, 0).value();
  EXPECT_GE(narrow + 1e-12, wider);
  EXPECT_GE(wider + 1e-12, unbounded);
}

INSTANTIATE_TEST_SUITE_P(Windows, DtwWindowSweep,
                         ::testing::Values(1, 3, 5, 10, 20));

class LcssEpsilonSweep : public ::testing::TestWithParam<double> {};

TEST_P(LcssEpsilonSweep, LargerEpsilonNeverIncreasesDistance) {
  Rng rng(6);
  Vector a(50), b(50);
  for (size_t i = 0; i < 50; ++i) {
    a[i] = rng.Uniform(0, 1);
    b[i] = rng.Uniform(0, 1);
  }
  const double eps = GetParam();
  const double tight = LcssDistance(a, b, eps).value();
  const double loose = LcssDistance(a, b, eps + 0.1).value();
  EXPECT_GE(tight + 1e-12, loose);
  EXPECT_GE(tight, 0.0);
  EXPECT_LE(tight, 1.0);
}

INSTANTIATE_TEST_SUITE_P(Epsilons, LcssEpsilonSweep,
                         ::testing::Values(0.0, 0.05, 0.1, 0.2, 0.5));

}  // namespace
}  // namespace wpred
