#ifndef WPRED_LINALG_EIGEN_H_
#define WPRED_LINALG_EIGEN_H_

#include "common/status.h"
#include "linalg/matrix.h"

namespace wpred {

/// Eigendecomposition of a symmetric matrix.
struct EigenDecomposition {
  /// Eigenvalues, descending.
  Vector values;
  /// Column j of `vectors` is the unit eigenvector for values[j].
  Matrix vectors;
};

/// Cyclic Jacobi eigendecomposition of a symmetric matrix. Robust and exact
/// enough for wpred's small covariance matrices (tens of features).
/// Returns InvalidArgument for non-square or (numerically) non-symmetric
/// input, NumericalError if the sweep limit is exhausted before convergence.
Result<EigenDecomposition> JacobiEigen(const Matrix& a, int max_sweeps = 64,
                                       double tol = 1e-12);

}  // namespace wpred

#endif  // WPRED_LINALG_EIGEN_H_
