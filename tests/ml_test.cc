#include <cmath>
#include <cstring>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "linalg/stats.h"
#include "ml/cross_validation.h"
#include "ml/decision_tree.h"
#include "ml/gradient_boosting.h"
#include "ml/lasso.h"
#include "ml/linear_regression.h"
#include "ml/lmm.h"
#include "ml/logistic_regression.h"
#include "ml/mars.h"
#include "ml/metrics.h"
#include "ml/mlp.h"
#include "ml/random_forest.h"
#include "ml/svr.h"

namespace wpred {
namespace {

// y = 3 + 2*x0 - x1 + noise over n points.
struct LinearProblem {
  Matrix x;
  Vector y;
};

LinearProblem MakeLinearProblem(size_t n, double noise, uint64_t seed) {
  Rng rng(seed);
  LinearProblem p;
  p.x = Matrix(n, 2);
  p.y.resize(n);
  for (size_t i = 0; i < n; ++i) {
    p.x(i, 0) = rng.Uniform(-2, 2);
    p.x(i, 1) = rng.Uniform(-2, 2);
    p.y[i] = 3.0 + 2.0 * p.x(i, 0) - p.x(i, 1) + rng.Gaussian(0, noise);
  }
  return p;
}

TEST(MetricsTest, RmseKnown) {
  EXPECT_DOUBLE_EQ(Rmse({1, 2, 3}, {1, 2, 3}), 0.0);
  EXPECT_DOUBLE_EQ(Rmse({0, 0}, {3, 4}), std::sqrt(12.5));
}

TEST(MetricsTest, NrmseNormalizesByRange) {
  // RMSE = 1, range = 10 -> NRMSE = 0.1.
  EXPECT_NEAR(Nrmse({0, 10}, {1, 9}), 0.1, 1e-12);
}

TEST(MetricsTest, NrmseFallsBackToMeanForConstantTruth) {
  EXPECT_NEAR(Nrmse({4, 4}, {5, 5}), 0.25, 1e-12);
}

TEST(MetricsTest, MapeSkipsZeros) {
  EXPECT_NEAR(Mape({10, 0, 20}, {11, 5, 18}), (0.1 + 0.1) / 2.0, 1e-12);
}

TEST(MetricsTest, MapeAllZeroTruthIsNan) {
  // Every entry skipped leaves no denominator; the old code returned a
  // misleading 0.0 ("perfect") here.
  EXPECT_TRUE(std::isnan(Mape({0, 0, 0}, {1, 2, 3})));
}

TEST(MetricsTest, MapeDetailExposesSkippedCount) {
  const MapeResult detail = MapeDetail({10, 0, 20}, {11, 5, 18});
  EXPECT_EQ(detail.used, 2u);
  EXPECT_EQ(detail.skipped, 1u);
  EXPECT_NEAR(detail.mape, (0.1 + 0.1) / 2.0, 1e-12);

  const MapeResult empty = MapeDetail({0, 0}, {1, 1});
  EXPECT_EQ(empty.used, 0u);
  EXPECT_EQ(empty.skipped, 2u);
  EXPECT_TRUE(std::isnan(empty.mape));
}

TEST(MetricsTest, NrmseAllZeroTruthIsNan) {
  // Constant-zero truth has neither range nor mean to normalise by: any
  // nonzero error must surface as NaN, not divide-by-zero or a fake 0.
  EXPECT_TRUE(std::isnan(Nrmse({0, 0}, {1, 1})));
  // ...but a perfect prediction of all-zero truth is a true zero error.
  EXPECT_DOUBLE_EQ(Nrmse({0, 0}, {0, 0}), 0.0);
}

TEST(MetricsTest, R2PerfectAndMean) {
  EXPECT_DOUBLE_EQ(R2({1, 2, 3}, {1, 2, 3}), 1.0);
  EXPECT_DOUBLE_EQ(R2({1, 2, 3}, {2, 2, 2}), 0.0);  // mean predictor
}

TEST(MetricsTest, Accuracy) {
  EXPECT_DOUBLE_EQ(Accuracy({1, 2, 3, 4}, {1, 2, 0, 4}), 0.75);
}

TEST(LinearRegressionTest, RecoversCoefficients) {
  const LinearProblem p = MakeLinearProblem(200, 0.01, 1);
  LinearRegression model;
  ASSERT_TRUE(model.Fit(p.x, p.y).ok());
  EXPECT_NEAR(model.intercept(), 3.0, 0.05);
  EXPECT_NEAR(model.coefficients()[0], 2.0, 0.05);
  EXPECT_NEAR(model.coefficients()[1], -1.0, 0.05);
  const auto pred = model.Predict({1.0, 1.0});
  ASSERT_TRUE(pred.ok());
  EXPECT_NEAR(pred.value(), 4.0, 0.1);
}

TEST(LinearRegressionTest, RejectsBadInput) {
  LinearRegression model;
  EXPECT_FALSE(model.Fit(Matrix(), {}).ok());
  EXPECT_FALSE(model.Fit(Matrix{{1.0}}, {1.0, 2.0}).ok());
  EXPECT_FALSE(model.Predict({1.0}).ok());  // not fitted
  ASSERT_TRUE(model.Fit(Matrix{{1.0}, {2.0}}, {1.0, 2.0}).ok());
  EXPECT_FALSE(model.Predict({1.0, 2.0}).ok());  // arity mismatch
}

TEST(LassoTest, ZeroAlphaMatchesOls) {
  const LinearProblem p = MakeLinearProblem(300, 0.01, 3);
  Lasso lasso(0.0);
  LinearRegression ols;
  ASSERT_TRUE(lasso.Fit(p.x, p.y).ok());
  ASSERT_TRUE(ols.Fit(p.x, p.y).ok());
  for (double x0 : {-1.0, 0.5, 2.0}) {
    const Vector row{x0, -x0};
    EXPECT_NEAR(lasso.Predict(row).value(), ols.Predict(row).value(), 1e-3);
  }
}

TEST(LassoTest, LargeAlphaZeroesEverything) {
  const LinearProblem p = MakeLinearProblem(100, 0.1, 4);
  const double alpha_max = LassoAlphaMax(p.x, p.y);
  Lasso lasso(alpha_max * 1.01);
  ASSERT_TRUE(lasso.Fit(p.x, p.y).ok());
  for (double c : lasso.coefficients()) EXPECT_DOUBLE_EQ(c, 0.0);
}

TEST(LassoTest, SelectsRelevantFeatureAmongNoise) {
  Rng rng(5);
  Matrix x(150, 6);
  Vector y(150);
  for (size_t i = 0; i < 150; ++i) {
    for (size_t j = 0; j < 6; ++j) x(i, j) = rng.Gaussian();
    y[i] = 5.0 * x(i, 2) + rng.Gaussian(0, 0.1);
  }
  Lasso lasso(0.1);
  ASSERT_TRUE(lasso.Fit(x, y).ok());
  const Vector imp = lasso.FeatureImportances().value();
  for (size_t j = 0; j < 6; ++j) {
    if (j == 2) {
      EXPECT_GT(imp[j], 1.0);
    } else {
      EXPECT_LT(imp[j], 0.2);
    }
  }
}

TEST(LassoPathTest, MonotoneSupportGrowth) {
  Rng rng(6);
  Matrix x(120, 4);
  Vector y(120);
  for (size_t i = 0; i < 120; ++i) {
    for (size_t j = 0; j < 4; ++j) x(i, j) = rng.Gaussian();
    y[i] = 3.0 * x(i, 0) + 1.0 * x(i, 1) + 0.3 * x(i, 2) + rng.Gaussian(0, 0.05);
  }
  const auto path = LassoPath(x, y, 30);
  ASSERT_TRUE(path.ok());
  // First alpha: everything zero; last: strongest feature has largest |coef|.
  for (size_t j = 0; j < 4; ++j) {
    EXPECT_NEAR(path->coefficients(0, j), 0.0, 1e-9);
  }
  const size_t last = path->coefficients.rows() - 1;
  EXPECT_GT(std::fabs(path->coefficients(last, 0)),
            std::fabs(path->coefficients(last, 1)));
  EXPECT_GT(std::fabs(path->coefficients(last, 1)),
            std::fabs(path->coefficients(last, 3)));
  // Alphas strictly decreasing.
  for (size_t a = 1; a < path->alphas.size(); ++a) {
    EXPECT_LT(path->alphas[a], path->alphas[a - 1]);
  }
}

TEST(ElasticNetTest, RidgeLimitKeepsCorrelatedPair) {
  // Two identical predictors: lasso picks one arbitrarily, elastic net with
  // substantial L2 spreads weight over both.
  Rng rng(7);
  Matrix x(200, 2);
  Vector y(200);
  for (size_t i = 0; i < 200; ++i) {
    const double v = rng.Gaussian();
    x(i, 0) = v;
    x(i, 1) = v;
    y[i] = 4.0 * v + rng.Gaussian(0, 0.01);
  }
  ElasticNet enet(0.05, 0.3);
  ASSERT_TRUE(enet.Fit(x, y).ok());
  EXPECT_GT(std::fabs(enet.coefficients()[0]), 0.5);
  EXPECT_GT(std::fabs(enet.coefficients()[1]), 0.5);
  EXPECT_NEAR(enet.coefficients()[0], enet.coefficients()[1], 0.2);
}

TEST(ElasticNetTest, RejectsBadHyperparameters) {
  const LinearProblem p = MakeLinearProblem(20, 0.1, 8);
  EXPECT_FALSE(ElasticNet(-1.0, 0.5).Fit(p.x, p.y).ok());
  EXPECT_FALSE(ElasticNet(1.0, 1.5).Fit(p.x, p.y).ok());
}

std::pair<Matrix, std::vector<int>> MakeBlobs(size_t per_class, int classes,
                                              double spread, uint64_t seed) {
  Rng rng(seed);
  Matrix x(per_class * classes, 2);
  std::vector<int> y(per_class * classes);
  for (int c = 0; c < classes; ++c) {
    const double cx = 4.0 * std::cos(2 * M_PI * c / classes);
    const double cy = 4.0 * std::sin(2 * M_PI * c / classes);
    for (size_t i = 0; i < per_class; ++i) {
      const size_t row = c * per_class + i;
      x(row, 0) = cx + rng.Gaussian(0, spread);
      x(row, 1) = cy + rng.Gaussian(0, spread);
      y[row] = c;
    }
  }
  return {x, y};
}

TEST(LogisticRegressionTest, SeparatesBlobs) {
  const auto [x, y] = MakeBlobs(50, 3, 0.5, 9);
  LogisticRegression model;
  ASSERT_TRUE(model.Fit(x, y).ok());
  const auto pred = model.PredictBatch(x);
  ASSERT_TRUE(pred.ok());
  EXPECT_GT(Accuracy(y, pred.value()), 0.97);
  EXPECT_EQ(model.num_classes(), 3);
}

TEST(LogisticRegressionTest, ProbabilitiesSumToOne) {
  const auto [x, y] = MakeBlobs(30, 2, 0.5, 10);
  LogisticRegression model;
  ASSERT_TRUE(model.Fit(x, y).ok());
  const auto proba = model.PredictProba(x.Row(0));
  ASSERT_TRUE(proba.ok());
  double total = 0.0;
  for (double p : proba.value()) {
    EXPECT_GE(p, 0.0);
    total += p;
  }
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(LogisticRegressionTest, ImportancesFavourInformativeFeature) {
  Rng rng(11);
  Matrix x(200, 3);
  std::vector<int> y(200);
  for (size_t i = 0; i < 200; ++i) {
    x(i, 0) = rng.Gaussian();
    x(i, 1) = rng.Gaussian();
    x(i, 2) = (i % 2 == 0) ? rng.Gaussian(2, 0.5) : rng.Gaussian(-2, 0.5);
    y[i] = i % 2 == 0 ? 1 : 0;
  }
  LogisticRegression model;
  ASSERT_TRUE(model.Fit(x, y).ok());
  const Vector imp = model.FeatureImportances().value();
  EXPECT_GT(imp[2], 3.0 * imp[0]);
  EXPECT_GT(imp[2], 3.0 * imp[1]);
}

TEST(LogisticRegressionTest, RejectsSingleClass) {
  LogisticRegression model;
  EXPECT_FALSE(model.Fit(Matrix{{1.0}, {2.0}}, {0, 0}).ok());
  EXPECT_FALSE(model.Fit(Matrix{{1.0}, {2.0}}, {0, -1}).ok());
}

TEST(DecisionTreeClassifierTest, PerfectlySeparableData) {
  const auto [x, y] = MakeBlobs(40, 2, 0.3, 14);
  DecisionTreeClassifier tree;
  ASSERT_TRUE(tree.Fit(x, y).ok());
  EXPECT_GT(Accuracy(y, tree.PredictBatch(x).value()), 0.99);
}

TEST(DecisionTreeClassifierTest, MinSamplesLeafRespected) {
  const auto [x, y] = MakeBlobs(20, 2, 2.5, 15);
  TreeParams params;
  params.min_samples_leaf = 15;
  DecisionTreeClassifier tree(params);
  ASSERT_TRUE(tree.Fit(x, y).ok());
  // Tree is heavily restricted; it must still predict valid labels.
  for (size_t i = 0; i < x.rows(); ++i) {
    const int label = tree.Predict(x.Row(i)).value();
    EXPECT_GE(label, 0);
    EXPECT_LT(label, 2);
  }
}

TEST(RandomForestClassifierTest, BlobsAndImportances) {
  const auto [x, y] = MakeBlobs(60, 3, 0.8, 17);
  ForestParams fp;
  fp.num_trees = 40;
  RandomForestClassifier forest(fp);
  ASSERT_TRUE(forest.Fit(x, y).ok());
  EXPECT_GT(Accuracy(y, forest.PredictBatch(x).value()), 0.95);
  const Vector imp = forest.FeatureImportances().value();
  EXPECT_NEAR(imp[0] + imp[1], 1.0, 1e-9);
}

TEST(RandomForestTest, DeterministicForSeed) {
  const auto [x, y] = MakeBlobs(40, 3, 1.5, 18);
  ForestParams fp;
  fp.num_trees = 20;
  RandomForestClassifier a(fp), b(fp);
  ASSERT_TRUE(a.Fit(x, y).ok());
  ASSERT_TRUE(b.Fit(x, y).ok());
  EXPECT_EQ(a.PredictBatch(x).value(), b.PredictBatch(x).value());
  const Vector imp_a = a.FeatureImportances().value();
  const Vector imp_b = b.FeatureImportances().value();
  ASSERT_EQ(imp_a.size(), imp_b.size());
  for (size_t f = 0; f < imp_a.size(); ++f) {
    EXPECT_EQ(std::memcmp(&imp_a[f], &imp_b[f], sizeof(double)), 0) << f;
  }
}

TEST(GradientBoostingTest, DrivesTrainingErrorDown) {
  Rng rng(19);
  Matrix x(200, 2);
  Vector y(200);
  for (size_t i = 0; i < 200; ++i) {
    x(i, 0) = rng.Uniform(-2, 2);
    x(i, 1) = rng.Uniform(-2, 2);
    y[i] = x(i, 0) * x(i, 0) + 2.0 * x(i, 1);
  }
  GbParams weak;
  weak.num_stages = 5;
  GbParams strong;
  strong.num_stages = 200;
  GradientBoostingRegressor gb_weak(weak), gb_strong(strong);
  ASSERT_TRUE(gb_weak.Fit(x, y).ok());
  ASSERT_TRUE(gb_strong.Fit(x, y).ok());
  EXPECT_LT(Rmse(y, gb_strong.PredictBatch(x).value()),
            0.5 * Rmse(y, gb_weak.PredictBatch(x).value()));
}

TEST(GradientBoostingTest, RejectsBadHyperparameters) {
  const LinearProblem p = MakeLinearProblem(20, 0.1, 20);
  GbParams bad;
  bad.num_stages = 0;
  EXPECT_FALSE(GradientBoostingRegressor(bad).Fit(p.x, p.y).ok());
  bad = GbParams();
  bad.learning_rate = 0.0;
  EXPECT_FALSE(GradientBoostingRegressor(bad).Fit(p.x, p.y).ok());
  bad = GbParams();
  bad.subsample = 1.5;
  EXPECT_FALSE(GradientBoostingRegressor(bad).Fit(p.x, p.y).ok());
}

TEST(SvrTest, FitsLinearTrendWithRbf) {
  Rng rng(21);
  Matrix x(60, 1);
  Vector y(60);
  for (size_t i = 0; i < 60; ++i) {
    x(i, 0) = rng.Uniform(0, 10);
    y[i] = 100.0 + 30.0 * x(i, 0) + rng.Gaussian(0, 2.0);
  }
  SvmRegressor svr;
  ASSERT_TRUE(svr.Fit(x, y).ok());
  const double at5 = svr.Predict({5.0}).value();
  EXPECT_NEAR(at5, 250.0, 25.0);
  EXPECT_GT(svr.NumSupportVectors(), 0u);
}

TEST(SvrTest, LinearKernelExtrapolatesBetterThanRbf) {
  Matrix x(20, 1);
  Vector y(20);
  for (size_t i = 0; i < 20; ++i) {
    x(i, 0) = static_cast<double>(i);
    y[i] = 2.0 * i;
  }
  SvrParams lin;
  lin.kernel = SvmKernel::kLinear;
  SvmRegressor svr_lin(lin), svr_rbf;
  ASSERT_TRUE(svr_lin.Fit(x, y).ok());
  ASSERT_TRUE(svr_rbf.Fit(x, y).ok());
  const double truth = 2.0 * 25.0;
  EXPECT_LT(std::fabs(svr_lin.Predict({25.0}).value() - truth),
            std::fabs(svr_rbf.Predict({25.0}).value() - truth));
}

TEST(MlpTest, LearnsNonlinearFunctionWithSmallNet) {
  Rng rng(22);
  Matrix x(400, 1);
  Vector y(400);
  for (size_t i = 0; i < 400; ++i) {
    x(i, 0) = rng.Uniform(-3, 3);
    y[i] = x(i, 0) * x(i, 0);
  }
  MlpParams params;
  params.hidden_layers = {32, 32};
  params.epochs = 400;
  MlpRegressor mlp(params);
  ASSERT_TRUE(mlp.Fit(x, y).ok());
  EXPECT_NEAR(mlp.Predict({2.0}).value(), 4.0, 0.8);
  EXPECT_NEAR(mlp.Predict({0.0}).value(), 0.0, 0.8);
}

TEST(MlpTest, DeepNetOnTinyDataGeneralizesWorseThanLinear) {
  // The paper's Table 6 insight: a 6-layer MLP on ~24 points is far less
  // reliable than simple models once it must predict outside what it saw.
  Rng rng(23);
  Matrix x(24, 1);
  Vector y(24);
  for (size_t i = 0; i < 24; ++i) {
    x(i, 0) = rng.Uniform(2, 8);
    y[i] = 100.0 * x(i, 0) + rng.Gaussian(0, 10);
  }
  MlpRegressor deep;  // default: 6 x 64 hidden layers
  LinearRegression ols;
  ASSERT_TRUE(deep.Fit(x, y).ok());
  ASSERT_TRUE(ols.Fit(x, y).ok());
  const double truth = 100.0 * 16.0;
  EXPECT_GT(std::fabs(deep.Predict({16.0}).value() - truth),
            std::fabs(ols.Predict({16.0}).value() - truth));
}

TEST(MarsTest, RecoversPiecewiseLinearKink) {
  Matrix x(60, 1);
  Vector y(60);
  for (size_t i = 0; i < 60; ++i) {
    const double v = static_cast<double>(i) / 6.0;  // 0..10
    x(i, 0) = v;
    y[i] = v < 5.0 ? 2.0 * v : 10.0;  // slope 2 then flat
  }
  MarsRegressor mars;
  ASSERT_TRUE(mars.Fit(x, y).ok());
  EXPECT_GT(mars.NumTerms(), 0u);
  EXPECT_NEAR(mars.Predict({2.0}).value(), 4.0, 0.4);
  EXPECT_NEAR(mars.Predict({8.0}).value(), 10.0, 0.4);
}

TEST(MarsTest, PrunesToSimpleModelOnLinearData) {
  const LinearProblem p = MakeLinearProblem(80, 0.05, 24);
  MarsRegressor mars;
  ASSERT_TRUE(mars.Fit(p.x, p.y).ok());
  const Vector pred = mars.PredictBatch(p.x).value();
  EXPECT_LT(Nrmse(p.y, pred), 0.1);
}

TEST(LmmTest, RecoversGroupOffsets) {
  Rng rng(25);
  Matrix x(150, 1);
  Vector y(150);
  std::vector<int> groups(150);
  const double offsets[3] = {-5.0, 0.0, 5.0};
  for (size_t i = 0; i < 150; ++i) {
    x(i, 0) = rng.Uniform(0, 10);
    groups[i] = static_cast<int>(i % 3);
    y[i] = 2.0 * x(i, 0) + offsets[i % 3] + rng.Gaussian(0, 0.2);
  }
  LinearMixedModel lmm;
  ASSERT_TRUE(lmm.Fit(x, y, groups).ok());
  EXPECT_NEAR(lmm.fixed_effects()[0], 2.0, 0.1);
  EXPECT_NEAR(lmm.RandomEffect(0) - lmm.RandomEffect(2), -10.0, 0.5);
  // Group-conditional beats marginal for group 0.
  const double cond = lmm.PredictForGroup({5.0}, 0).value();
  const double marg = lmm.Predict({5.0}).value();
  EXPECT_LT(std::fabs(cond - (10.0 - 5.0)), std::fabs(marg - (10.0 - 5.0)));
  EXPECT_GT(lmm.sigma_u2(), lmm.sigma_e2());
  EXPECT_GT(lmm.PredictionHalfWidth95().value(), 0.0);
}

TEST(LmmTest, UnknownGroupFallsBackToMarginal) {
  Rng rng(26);
  Matrix x(60, 1);
  Vector y(60);
  std::vector<int> groups(60);
  for (size_t i = 0; i < 60; ++i) {
    x(i, 0) = rng.Uniform(0, 10);
    groups[i] = static_cast<int>(i % 2);
    y[i] = x(i, 0) + (i % 2 == 0 ? 1.0 : -1.0);
  }
  LinearMixedModel lmm;
  ASSERT_TRUE(lmm.Fit(x, y, groups).ok());
  EXPECT_DOUBLE_EQ(lmm.PredictForGroup({4.0}, 99).value(),
                   lmm.Predict({4.0}).value());
}

TEST(LmmRegressorTest, GroupColumnHandling) {
  Rng rng(27);
  Matrix x(90, 2);  // col 0 = group id, col 1 = predictor
  Vector y(90);
  for (size_t i = 0; i < 90; ++i) {
    x(i, 0) = static_cast<double>(i % 3);
    x(i, 1) = rng.Uniform(0, 10);
    y[i] = 3.0 * x(i, 1) + 4.0 * (i % 3) + rng.Gaussian(0, 0.1);
  }
  LmmRegressor lmm(0);
  ASSERT_TRUE(lmm.Fit(x, y).ok());
  EXPECT_NEAR(lmm.Predict({2.0, 5.0}).value(), 15.0 + 8.0, 1.0);
  EXPECT_FALSE(LmmRegressor(5).Fit(x, y).ok());  // column out of range
}

TEST(KFoldTest, SplitsPartitionData) {
  Rng rng(28);
  const auto folds = KFoldSplits(23, 5, rng);
  ASSERT_TRUE(folds.ok());
  ASSERT_EQ(folds->size(), 5u);
  std::vector<int> seen(23, 0);
  for (const FoldSplit& fold : folds.value()) {
    EXPECT_EQ(fold.train.size() + fold.test.size(), 23u);
    for (size_t i : fold.test) ++seen[i];
  }
  for (int count : seen) EXPECT_EQ(count, 1);
}

TEST(KFoldTest, RejectsBadK) {
  Rng rng(29);
  EXPECT_FALSE(KFoldSplits(10, 1, rng).ok());
  EXPECT_FALSE(KFoldSplits(3, 5, rng).ok());
}

}  // namespace
}  // namespace wpred
