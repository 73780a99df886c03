#ifndef WPRED_SIMILARITY_DTW_H_
#define WPRED_SIMILARITY_DTW_H_

#include "common/status.h"
#include "linalg/matrix.h"

namespace wpred {

/// Univariate Dynamic Time Warping (Sakoe-Chiba): returns the square root
/// of the minimal accumulated squared difference along a monotone alignment
/// path. `window` bounds |i − j| (Sakoe-Chiba band, widened to at least the
/// length difference so unequal-length series stay alignable); <= 0 means
/// unbounded. Non-finite inputs are rejected with InvalidArgument in every
/// build type (release builds used to propagate NaN silently).
Result<double> DtwDistance(const Vector& a, const Vector& b, int window = 0);

/// Dependent multivariate DTW (Shokoohi-Yekta et al.): one alignment over
/// all dimensions, cell cost = squared Euclidean distance between the
/// multivariate samples. Rows are time steps, columns features; the two
/// series may have different lengths but must share the feature count.
Result<double> DependentDtwDistance(const Matrix& a, const Matrix& b,
                                    int window = 0);

/// Independent multivariate DTW: mean of univariate DTW distances per
/// dimension (each dimension aligns on its own). Averaging matches
/// IndependentLcssDistance so both "Independent" measures are invariant to
/// the size of the selected-feature set.
Result<double> IndependentDtwDistance(const Matrix& a, const Matrix& b,
                                      int window = 0);

/// Outcome of a cutoff-threaded DTW evaluation (the early-abandoning core
/// behind the pruned similarity search in similarity/query.h).
///
/// When `abandoned` is false, `distance` is the exact DTW distance —
/// bit-identical to the plain kernel, because the cutoff only decides when
/// to stop, never how cells are computed. When `abandoned` is true the
/// kernel proved distance >= cutoff after some prefix of the lattice and
/// skipped the rest; `distance` is then a lower bound, not the true
/// value, and must only be used to discard the candidate.
struct DtwEarlyAbandon {
  double distance = 0.0;
  bool abandoned = false;
};

// --- Column-major span kernels (DESIGN.md §15) ---
//
// The contiguous-span entry points behind the Matrix/Vector wrappers
// above, which validate their input and run these at cutoff = +inf. The
// similarity engine calls these directly against its corpus's column-major
// mirror (SimilarityQueryEngine::col_data), so the hot loop
// never copies a column per (candidate, feature) pair. The band recurrence
// runs as an anti-diagonal wavefront of elementwise common/simd passes and
// stays bit-identical to the textbook row-order loop on every completed
// distance (min is exact; cell costs keep the same per-feature
// accumulation order). Inputs must be finite: the public wrappers
// validate, the engine validates at Build/RankNeighbors.

/// Univariate DTW over two contiguous spans with a best-so-far cutoff: once
/// every in-band cell on two consecutive anti-diagonals is >= cutoff² no
/// alignment can finish below `cutoff` (every warping path crosses one of
/// them and cell costs are nonnegative), so the rest of the lattice is
/// abandoned. `cutoff` = +inf never abandons and reproduces DtwDistance
/// exactly.
Result<DtwEarlyAbandon> DtwSpanEarlyAbandon(const double* a, size_t m,
                                            const double* b, size_t n,
                                            int window, double cutoff);

/// Dependent multivariate DTW over column-major spans: `a` is `features`
/// columns of `m` doubles (column f at a + f·m), likewise `b` with `n`.
Result<DtwEarlyAbandon> DependentDtwColsEarlyAbandon(const double* a,
                                                     size_t m,
                                                     const double* b,
                                                     size_t n,
                                                     size_t features,
                                                     int window,
                                                     double cutoff);

/// Independent multivariate DTW over column-major spans. The per-feature
/// kernels are chained: once the partial sum of per-feature distances alone
/// forces the mean over all features to reach `cutoff`, the remaining
/// features are skipped.
Result<DtwEarlyAbandon> IndependentDtwColsEarlyAbandon(const double* a,
                                                       size_t m,
                                                       const double* b,
                                                       size_t n,
                                                       size_t features,
                                                       int window,
                                                       double cutoff);

}  // namespace wpred

#endif  // WPRED_SIMILARITY_DTW_H_
