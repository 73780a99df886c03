#include <cmath>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "linalg/eigen.h"
#include "linalg/stats.h"
#include "ml/pca.h"

namespace wpred {
namespace {

TEST(JacobiEigenTest, DiagonalMatrixIsItsOwnDecomposition) {
  const auto eig = JacobiEigen(Matrix{{3, 0}, {0, 7}});
  ASSERT_TRUE(eig.ok());
  EXPECT_NEAR(eig->values[0], 7.0, 1e-12);
  EXPECT_NEAR(eig->values[1], 3.0, 1e-12);
}

TEST(JacobiEigenTest, KnownSymmetricMatrix) {
  // Eigenvalues of [[2,1],[1,2]] are 3 and 1.
  const auto eig = JacobiEigen(Matrix{{2, 1}, {1, 2}});
  ASSERT_TRUE(eig.ok());
  EXPECT_NEAR(eig->values[0], 3.0, 1e-10);
  EXPECT_NEAR(eig->values[1], 1.0, 1e-10);
  // Eigenvector for 3 is (1,1)/sqrt(2) up to sign.
  EXPECT_NEAR(std::fabs(eig->vectors(0, 0)), 1.0 / std::sqrt(2.0), 1e-9);
}

TEST(JacobiEigenTest, ReconstructsRandomSymmetricMatrix) {
  Rng rng(1);
  const size_t n = 8;
  Matrix a(n, n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i; j < n; ++j) {
      a(i, j) = rng.Gaussian();
      a(j, i) = a(i, j);
    }
  }
  const auto eig = JacobiEigen(a);
  ASSERT_TRUE(eig.ok());
  // A = V diag(values) Vᵀ.
  Matrix lambda(n, n);
  for (size_t i = 0; i < n; ++i) lambda(i, i) = eig->values[i];
  const Matrix rec = eig->vectors * lambda * eig->vectors.Transposed();
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < n; ++j) EXPECT_NEAR(rec(i, j), a(i, j), 1e-8);
  }
  // Eigenvectors orthonormal.
  const Matrix gram = eig->vectors.Transposed() * eig->vectors;
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < n; ++j) {
      EXPECT_NEAR(gram(i, j), i == j ? 1.0 : 0.0, 1e-9);
    }
  }
}

TEST(JacobiEigenTest, RejectsNonSymmetricAndNonSquare) {
  EXPECT_FALSE(JacobiEigen(Matrix{{1, 2}, {3, 4}}).ok());
  EXPECT_FALSE(JacobiEigen(Matrix(2, 3)).ok());
}

TEST(PcaTest, FindsDominantDirection) {
  // Data varies strongly along feature 0+1 jointly, weakly on feature 2.
  Rng rng(3);
  Matrix x(300, 3);
  for (size_t i = 0; i < 300; ++i) {
    const double t = rng.Gaussian(0, 3.0);
    x(i, 0) = t + rng.Gaussian(0, 0.1);
    x(i, 1) = t + rng.Gaussian(0, 0.1);
    x(i, 2) = rng.Gaussian(0, 0.1);
  }
  Pca pca;
  ASSERT_TRUE(pca.Fit(x, 2).ok());
  // Correlation-matrix PCA: the correlated pair forms one component with
  // eigenvalue ~2 of 3 (ratio ~2/3); the independent feature gets ~1/3.
  EXPECT_GT(pca.explained_variance_ratio()[0], 0.6);
  EXPECT_GT(pca.explained_variance_ratio()[0],
            1.8 * pca.explained_variance_ratio()[1]);
  // Its loading on feature 2 is tiny compared to features 0/1.
  EXPECT_LT(std::fabs(pca.components()(2, 0)),
            0.2 * std::fabs(pca.components()(0, 0)));
}

TEST(PcaTest, TransformShapesAndRoundTrip) {
  Rng rng(4);
  Matrix x(50, 4);
  for (double& v : x.data()) v = rng.Gaussian();
  Pca pca;
  ASSERT_TRUE(pca.Fit(x, 4).ok());  // full rank: lossless round trip
  const Matrix z = pca.Transform(x).value();
  EXPECT_EQ(z.cols(), 4u);
  const Matrix back = pca.InverseTransform(z).value();
  // Back-projection lands in the standardised space of x.
  StandardScaler scaler;
  const Matrix zs = scaler.FitTransform(x);
  for (size_t i = 0; i < x.rows(); ++i) {
    for (size_t j = 0; j < x.cols(); ++j) {
      EXPECT_NEAR(back(i, j), zs(i, j), 1e-8);
    }
  }
}

TEST(PcaTest, ExplainedVarianceSumsBelowOne) {
  Rng rng(5);
  Matrix x(80, 6);
  for (double& v : x.data()) v = rng.Gaussian();
  Pca pca;
  ASSERT_TRUE(pca.Fit(x, 3).ok());
  double total = 0.0;
  for (double r : pca.explained_variance_ratio()) {
    EXPECT_GE(r, 0.0);
    total += r;
  }
  EXPECT_LE(total, 1.0 + 1e-9);
}

TEST(PcaTest, RejectsBadArguments) {
  Pca pca;
  EXPECT_FALSE(pca.Fit(Matrix{{1.0, 2.0}}, 1).ok());      // single row
  Matrix x{{1, 2}, {3, 4}, {5, 6}};
  EXPECT_FALSE(pca.Fit(x, 0).ok());
  EXPECT_FALSE(pca.Fit(x, 3).ok());                        // > features
  EXPECT_FALSE(pca.Transform(x).ok());                     // not fitted
}

}  // namespace
}  // namespace wpred
