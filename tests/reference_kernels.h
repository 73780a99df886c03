#ifndef WPRED_TESTS_REFERENCE_KERNELS_H_
#define WPRED_TESTS_REFERENCE_KERNELS_H_

// Test-only oracles for the similarity kernels (DESIGN.md §15) and the
// logistic-regression fit behind RFE.
//
// src/ ships one implementation of each kernel: lane-split reductions in
// common/simd.h, the anti-diagonal wavefront DTW in similarity/dtw.cc, the
// van Herk envelope in similarity/query.cc and the lanes-across-rows
// LogisticRegression::Fit. These are the textbook loops those paths are
// proven against:
//
//  - sequential reductions: one accumulator, index order. The lane-split
//    kernels may differ from them in the last ulp, never by more;
//  - row-order banded DTW with row-granular early abandon. Every completed
//    distance equals the wavefront's bitwise; the two may abandon a doomed
//    candidate at different points;
//  - the Lemire monotonic-deque envelope. It computes the exact windowed
//    min/max, as van Herk does, so the two agree bitwise;
//  - the row-major LB_Kim and LB_Keogh bounds. The engine computes LB_Kim
//    as the sketch bound's `kim` component and LB_Keogh as simd::
//    EnvelopeGapSq over its flat envelope arrays; both match these to
//    within reassociation.
//  - the row-at-a-time logistic-regression fit: each (row, class) score is
//    one serial chain over the features. The production fit runs those
//    chains in lanes across rows with the same per-row order, so weights,
//    bias and everything derived from them agree bitwise.
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
#include "linalg/stats.h"
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

/// Row-major LB_Keogh envelope: upper(i, f) / lower(i, f) = max / min of
/// column f over the band rows [i − band, i + band].
struct SeriesEnvelope {
  Matrix lower;
  Matrix upper;
};

/// The deque envelope of `series`, transposed to row-major.
inline SeriesEnvelope BuildEnvelope(const Matrix& series, int window) {
  const size_t rows = series.rows();
  const size_t cols = series.cols();
  std::vector<double> lower(series.size());
  std::vector<double> upper(series.size());
  BuildEnvelopeColumns(series, window, lower.data(), upper.data());
  SeriesEnvelope envelope{Matrix(rows, cols), Matrix(rows, cols)};
  for (size_t f = 0; f < cols; ++f) {
    for (size_t r = 0; r < rows; ++r) {
      envelope.lower(r, f) = lower[f * rows + r];
      envelope.upper(r, f) = upper[f * rows + r];
    }
  }
  return envelope;
}

/// Squared Euclidean distance between row `ra` of `a` and row `rb` of `b`.
inline double RowSquaredDistance(const Matrix& a, size_t ra, const Matrix& b,
                                 size_t rb) {
  double acc = 0.0;
  for (size_t f = 0; f < a.cols(); ++f) {
    const double d = a(ra, f) - b(rb, f);
    acc += d * d;
  }
  return acc;
}

/// LB_Kim: every alignment path starts at the first cells and ends at the
/// last cells, so their costs alone lower-bound the DTW distance. Valid for
/// any pair of lengths and any window.
inline double LbKimDependent(const Matrix& query, const Matrix& candidate) {
  double acc = RowSquaredDistance(query, 0, candidate, 0);
  if (query.rows() + candidate.rows() > 2) {
    acc += RowSquaredDistance(query, query.rows() - 1, candidate,
                              candidate.rows() - 1);
  }
  return std::sqrt(acc);
}

inline double LbKimIndependent(const Matrix& query, const Matrix& candidate) {
  const bool distinct_endpoints = query.rows() + candidate.rows() > 2;
  double total = 0.0;
  for (size_t f = 0; f < query.cols(); ++f) {
    const double first = query(0, f) - candidate(0, f);
    double acc = first * first;
    if (distinct_endpoints) {
      const double last = query(query.rows() - 1, f) -
                          candidate(candidate.rows() - 1, f);
      acc += last * last;
    }
    total += std::sqrt(acc);
  }
  return total / static_cast<double>(query.cols());
}

/// Squared gap from v to [lo, hi]; 0 inside the interval.
inline double GapSq(double v, double lo, double hi) {
  if (v > hi) return (v - hi) * (v - hi);
  if (v < lo) return (lo - v) * (lo - v);
  return 0.0;
}

/// LB_Keogh of `query` against a candidate envelope built with the DTW
/// kernel's window: every query row aligns to at least one candidate row
/// inside the band, so its squared distance to the envelope lower-bounds
/// that row's contribution. Requires equal lengths.
inline double LbKeoghDependent(const Matrix& query,
                               const SeriesEnvelope& envelope) {
  double acc = 0.0;
  for (size_t i = 0; i < query.rows(); ++i) {
    for (size_t f = 0; f < query.cols(); ++f) {
      acc += GapSq(query(i, f), envelope.lower(i, f), envelope.upper(i, f));
    }
  }
  return std::sqrt(acc);
}

inline double LbKeoghIndependent(const Matrix& query,
                                 const SeriesEnvelope& envelope) {
  double total = 0.0;
  for (size_t f = 0; f < query.cols(); ++f) {
    double acc = 0.0;
    for (size_t i = 0; i < query.rows(); ++i) {
      acc += GapSq(query(i, f), envelope.lower(i, f), envelope.upper(i, f));
    }
    total += std::sqrt(acc);
  }
  return total / static_cast<double>(query.cols());
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

/// A fitted multinomial logistic regression: the scaler it standardised
/// with, weights (num_classes x num_features) and per-class bias.
struct LogisticRegressionModel {
  StandardScaler scaler;
  Matrix weights;
  Vector bias;
};

/// LogisticRegression::Fit row by row: full-batch gradient descent with
/// momentum on standardised inputs. Requires a valid problem (rows ≥ 1,
/// labels ≥ 0, max label ≥ 1).
inline LogisticRegressionModel LogisticRegressionFit(
    const Matrix& x, const std::vector<int>& y, double l2 = 1e-3,
    int max_iter = 300, double learning_rate = 0.5) {
  LogisticRegressionModel model;
  const int max_label = *std::max_element(y.begin(), y.end());
  const Matrix xs = model.scaler.FitTransform(x);
  const size_t n = xs.rows();
  const size_t p = xs.cols();
  const size_t k = static_cast<size_t>(max_label) + 1;

  model.weights = Matrix(k, p);
  model.bias.assign(k, 0.0);
  Matrix& weights = model.weights;
  Vector& bias = model.bias;
  Matrix vel_w(k, p);
  Vector vel_b(k, 0.0);
  const double momentum = 0.9;

  std::vector<double> probs(k);
  Matrix grad_w(k, p);
  Vector grad_b(k);
  for (int iter = 0; iter < max_iter; ++iter) {
    grad_w = Matrix(k, p);
    grad_b.assign(k, 0.0);
    for (size_t r = 0; r < n; ++r) {
      double max_score = -1e300;
      for (size_t c = 0; c < k; ++c) {
        double score = bias[c];
        for (size_t j = 0; j < p; ++j) score += weights(c, j) * xs(r, j);
        probs[c] = score;
        max_score = std::max(max_score, score);
      }
      double z = 0.0;
      for (size_t c = 0; c < k; ++c) {
        probs[c] = std::exp(probs[c] - max_score);
        z += probs[c];
      }
      for (size_t c = 0; c < k; ++c) {
        const double err =
            probs[c] / z - (static_cast<int>(c) == y[r] ? 1.0 : 0.0);
        grad_b[c] += err;
        for (size_t j = 0; j < p; ++j) grad_w(c, j) += err * xs(r, j);
      }
    }
    const double inv_n = 1.0 / static_cast<double>(n);
    for (size_t c = 0; c < k; ++c) {
      for (size_t j = 0; j < p; ++j) {
        const double g = grad_w(c, j) * inv_n + l2 * weights(c, j);
        vel_w(c, j) = momentum * vel_w(c, j) - learning_rate * g;
        weights(c, j) += vel_w(c, j);
      }
      vel_b[c] = momentum * vel_b[c] - learning_rate * grad_b[c] * inv_n;
      bias[c] += vel_b[c];
    }
  }
  return model;
}

/// Mean |weight| across classes, per feature.
inline Vector LogisticRegressionImportances(
    const LogisticRegressionModel& model) {
  const Matrix& w = model.weights;
  Vector importances(w.cols(), 0.0);
  for (size_t j = 0; j < w.cols(); ++j) {
    for (size_t c = 0; c < w.rows(); ++c) importances[j] += std::fabs(w(c, j));
    importances[j] /= static_cast<double>(w.rows());
  }
  return importances;
}

/// Softmax class probabilities of one raw (unstandardised) row.
inline Vector LogisticRegressionProba(const LogisticRegressionModel& model,
                                      const Vector& row) {
  const Vector z = model.scaler.TransformRow(row);
  Vector scores(model.weights.rows());
  for (size_t c = 0; c < scores.size(); ++c) {
    double score = model.bias[c];
    for (size_t j = 0; j < z.size(); ++j) score += model.weights(c, j) * z[j];
    scores[c] = score;
  }
  const double max_score = *std::max_element(scores.begin(), scores.end());
  double total = 0.0;
  for (double& s : scores) {
    s = std::exp(s - max_score);
    total += s;
  }
  for (double& s : scores) s /= total;
  return scores;
}

}  // namespace reference
}  // namespace wpred

#endif  // WPRED_TESTS_REFERENCE_KERNELS_H_
