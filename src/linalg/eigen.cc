#include "linalg/eigen.h"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace wpred {

Result<EigenDecomposition> JacobiEigen(const Matrix& a, int max_sweeps,
                                       double tol) {
  if (a.rows() != a.cols()) {
    return Status::InvalidArgument("matrix must be square");
  }
  const size_t n = a.rows();
  if (n == 0) return Status::InvalidArgument("empty matrix");
  double scale = 0.0;
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < n; ++j) scale = std::max(scale, std::fabs(a(i, j)));
  }
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i + 1; j < n; ++j) {
      if (std::fabs(a(i, j) - a(j, i)) > 1e-8 * std::max(1.0, scale)) {
        return Status::InvalidArgument("matrix is not symmetric");
      }
    }
  }

  Matrix d = a;                       // working copy, diagonalised in place
  Matrix v = Matrix::Identity(n);     // accumulated rotations
  const double threshold = tol * std::max(1.0, scale);

  for (int sweep = 0; sweep < max_sweeps; ++sweep) {
    double off = 0.0;
    for (size_t p = 0; p < n; ++p) {
      for (size_t q = p + 1; q < n; ++q) off += d(p, q) * d(p, q);
    }
    if (std::sqrt(off) <= threshold) {
      EigenDecomposition out;
      out.values.resize(n);
      for (size_t i = 0; i < n; ++i) out.values[i] = d(i, i);
      // Sort descending, permuting eigenvector columns alongside.
      std::vector<size_t> order(n);
      std::iota(order.begin(), order.end(), 0);
      std::stable_sort(order.begin(), order.end(), [&](size_t x, size_t y) {
        return out.values[x] > out.values[y];
      });
      Vector sorted_values(n);
      Matrix sorted_vectors(n, n);
      for (size_t j = 0; j < n; ++j) {
        sorted_values[j] = out.values[order[j]];
        for (size_t i = 0; i < n; ++i) {
          sorted_vectors(i, j) = v(i, order[j]);
        }
      }
      out.values = std::move(sorted_values);
      out.vectors = std::move(sorted_vectors);
      return out;
    }

    for (size_t p = 0; p < n; ++p) {
      for (size_t q = p + 1; q < n; ++q) {
        if (std::fabs(d(p, q)) <= threshold / (n * n)) continue;
        // Classic Jacobi rotation annihilating d(p, q).
        const double theta = (d(q, q) - d(p, p)) / (2.0 * d(p, q));
        const double t = (theta >= 0.0 ? 1.0 : -1.0) /
                         (std::fabs(theta) + std::sqrt(theta * theta + 1.0));
        const double c = 1.0 / std::sqrt(t * t + 1.0);
        const double s = t * c;
        for (size_t k = 0; k < n; ++k) {
          const double dkp = d(k, p);
          const double dkq = d(k, q);
          d(k, p) = c * dkp - s * dkq;
          d(k, q) = s * dkp + c * dkq;
        }
        for (size_t k = 0; k < n; ++k) {
          const double dpk = d(p, k);
          const double dqk = d(q, k);
          d(p, k) = c * dpk - s * dqk;
          d(q, k) = s * dpk + c * dqk;
        }
        for (size_t k = 0; k < n; ++k) {
          const double vkp = v(k, p);
          const double vkq = v(k, q);
          v(k, p) = c * vkp - s * vkq;
          v(k, q) = s * vkp + c * vkq;
        }
      }
    }
  }
  return Status::NumericalError("Jacobi sweeps exhausted without convergence");
}

}  // namespace wpred
