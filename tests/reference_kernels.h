#ifndef WPRED_TESTS_REFERENCE_KERNELS_H_
#define WPRED_TESTS_REFERENCE_KERNELS_H_

// Test-only oracles for the similarity kernels (DESIGN.md §15).
//
// src/ ships one implementation of each kernel: lane-split reductions in
// common/simd.h, the anti-diagonal wavefront DTW in similarity/dtw.cc and
// the van Herk envelope in similarity/query.cc. These are the textbook
// loops those paths are proven against:
//
//  - sequential reductions: one accumulator, index order. The lane-split
//    kernels may differ from them in the last ulp, never by more;
//  - row-order banded DTW with row-granular early abandon. Every completed
//    distance equals the wavefront's bitwise; the two may abandon a doomed
//    candidate at different points;
//  - the Lemire monotonic-deque envelope. It computes the exact windowed
//    min/max, as van Herk does, so the two agree bitwise.
//
// Nothing here is tuned: each oracle is the plainest loop with the same
// per-cell arithmetic, so a disagreement always implicates the production
// path.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <deque>
#include <limits>
#include <string>
#include <vector>

#include "common/status.h"
#include "linalg/matrix.h"
#include "similarity/dtw.h"
#include "similarity/query.h"

namespace wpred {
namespace reference {

/// Σ (a[i] − b[i])², summed in index order.
inline double SquaredL2(const double* a, const double* b, size_t n) {
  double acc = 0.0;
  for (size_t i = 0; i < n; ++i) {
    const double d = a[i] - b[i];
    acc += d * d;
  }
  return acc;
}

/// Σ a[i]·b[i], summed in index order.
inline double Dot(const double* a, const double* b, size_t n) {
  double acc = 0.0;
  for (size_t i = 0; i < n; ++i) acc += a[i] * b[i];
  return acc;
}

/// Σ squared distance from v[i] to [lo[i], hi[i]], summed in index order.
inline double EnvelopeGapSq(const double* v, const double* lo,
                            const double* hi, size_t n) {
  double acc = 0.0;
  for (size_t i = 0; i < n; ++i) {
    const double above = std::max(v[i] - hi[i], 0.0);
    const double below = std::max(lo[i] - v[i], 0.0);
    acc += above * above + below * below;
  }
  return acc;
}

/// Textbook row-order banded DTW. `cell(i, j)` is the squared cost of
/// aligning row i of the query with row j of the candidate (0-based). Same
/// band as the production kernel: `window` widened to the length
/// difference, <= 0 unbounded. Abandons once a whole lattice row is
/// >= cutoff².
template <typename Cell>
Result<DtwEarlyAbandon> RowOrderDtw(size_t m, size_t n, int window,
                                    double cutoff, const Cell& cell) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  if (m == 0 || n == 0) return Status::InvalidArgument("empty series");
  const size_t len_diff = m > n ? m - n : n - m;
  const size_t band =
      window > 0 ? std::max(static_cast<size_t>(window), len_diff)
                 : std::max(m, n);
  const double cutoff_sq = cutoff < kInf ? cutoff * cutoff : kInf;
  std::vector<double> prev(n + 1, kInf);
  std::vector<double> curr(n + 1, kInf);
  prev[0] = 0.0;
  for (size_t i = 1; i <= m; ++i) {
    std::fill(curr.begin(), curr.end(), kInf);
    const size_t j_lo = i > band ? i - band : 1;
    const size_t j_hi = std::min(n, i + band);
    double row_min = kInf;
    for (size_t j = j_lo; j <= j_hi; ++j) {
      curr[j] = cell(i - 1, j - 1) +
                std::min({prev[j], curr[j - 1], prev[j - 1]});
      row_min = std::min(row_min, curr[j]);
    }
    if (cutoff_sq < kInf && row_min >= cutoff_sq) {
      return DtwEarlyAbandon{cutoff, true};
    }
    std::swap(prev, curr);
  }
  if (!std::isfinite(prev[n])) {
    return Status::InvalidArgument("window too narrow for series lengths");
  }
  return DtwEarlyAbandon{std::sqrt(prev[n]), false};
}

/// Univariate row-order DTW over column `f` of `a` and `b`.
inline Result<DtwEarlyAbandon> ColumnDtw(const Matrix& a, const Matrix& b,
                                         size_t f, int window, double cutoff) {
  return RowOrderDtw(a.rows(), b.rows(), window, cutoff,
                     [&](size_t i, size_t j) {
                       const double d = a(i, f) - b(j, f);
                       return d * d;
                     });
}

/// Dependent multivariate DTW: cell cost summed feature-ascending.
inline Result<DtwEarlyAbandon> DependentDtw(const Matrix& a, const Matrix& b,
                                            int window, double cutoff) {
  return RowOrderDtw(a.rows(), b.rows(), window, cutoff,
                     [&](size_t i, size_t j) {
                       double acc = 0.0;
                       for (size_t f = 0; f < a.cols(); ++f) {
                         const double d = a(i, f) - b(j, f);
                         acc += d * d;
                       }
                       return acc;
                     });
}

/// Independent multivariate DTW: mean of per-feature distances, with the
/// production kernel's per-feature cutoff (what is left of cutoff·features
/// after the features already summed).
inline Result<DtwEarlyAbandon> IndependentDtw(const Matrix& a,
                                              const Matrix& b, int window,
                                              double cutoff) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  if (a.cols() == 0) return Status::InvalidArgument("empty series");
  const auto feature_count = static_cast<double>(a.cols());
  double total = 0.0;
  for (size_t f = 0; f < a.cols(); ++f) {
    const double feature_cutoff =
        cutoff < kInf ? cutoff * feature_count - total : kInf;
    WPRED_ASSIGN_OR_RETURN(
        const DtwEarlyAbandon r,
        ColumnDtw(a, b, f, window, std::max(feature_cutoff, 0.0)));
    if (r.abandoned) return DtwEarlyAbandon{cutoff, true};
    total += r.distance;
    if (cutoff < kInf && total >= cutoff * feature_count) {
      return DtwEarlyAbandon{cutoff, true};
    }
  }
  return DtwEarlyAbandon{total / feature_count, false};
}

/// Lemire streaming min/max over one contiguous column: upper[i] / lower[i]
/// = max / min of col over rows [i − band, i + band]. Each index enters and
/// leaves each monotonic deque once. Valid for any band, including bands
/// wider than the column.
inline void EnvelopeColumnDeque(const double* col, size_t rows, size_t band,
                                double* lower, double* upper) {
  std::deque<size_t> max_q;
  std::deque<size_t> min_q;
  size_t next = 0;  // first row not yet offered to the deques
  for (size_t i = 0; i < rows; ++i) {
    const size_t hi = std::min(rows - 1, i + band);
    while (next <= hi) {
      const double v = col[next];
      while (!max_q.empty() && col[max_q.back()] <= v) max_q.pop_back();
      max_q.push_back(next);
      while (!min_q.empty() && col[min_q.back()] >= v) min_q.pop_back();
      min_q.push_back(next);
      ++next;
    }
    const size_t lo = i > band ? i - band : 0;
    while (max_q.front() < lo) max_q.pop_front();
    while (min_q.front() < lo) min_q.pop_front();
    upper[i] = col[max_q.front()];
    lower[i] = col[min_q.front()];
  }
}

/// query_internal::BuildEnvelopeColumns computed column by column with the
/// deque (window <= 0 means unbounded).
inline void BuildEnvelopeColumns(const Matrix& series, int window,
                                 double* lower, double* upper) {
  const size_t rows = series.rows();
  const size_t band = window > 0 ? static_cast<size_t>(window) : rows;
  std::vector<double> col(rows);
  for (size_t f = 0; f < series.cols(); ++f) {
    for (size_t r = 0; r < rows; ++r) col[r] = series(r, f);
    EnvelopeColumnDeque(col.data(), rows, band, lower + f * rows,
                        upper + f * rows);
  }
}

/// Exhaustive top-k: every candidate's full distance under `measure`
/// ("Dependent-DTW" or "Independent-DTW"), sorted by (distance, index).
inline Result<std::vector<Neighbor>> ExhaustiveTopK(
    const std::vector<Matrix>& corpus, const Matrix& query,
    const std::string& measure, int window, size_t k) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  if (measure != "Dependent-DTW" && measure != "Independent-DTW") {
    return Status::InvalidArgument("no oracle for measure " + measure);
  }
  std::vector<Neighbor> all;
  for (size_t i = 0; i < corpus.size(); ++i) {
    WPRED_ASSIGN_OR_RETURN(
        const DtwEarlyAbandon r,
        measure == "Dependent-DTW"
            ? DependentDtw(query, corpus[i], window, kInf)
            : IndependentDtw(query, corpus[i], window, kInf));
    all.push_back({i, r.distance});
  }
  std::sort(all.begin(), all.end(), [](const Neighbor& x, const Neighbor& y) {
    if (x.distance != y.distance) return x.distance < y.distance;
    return x.index < y.index;
  });
  all.resize(std::min(k, all.size()));
  return all;
}

}  // namespace reference
}  // namespace wpred

#endif  // WPRED_TESTS_REFERENCE_KERNELS_H_
