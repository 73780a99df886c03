#include "similarity/dtw.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>

#include "common/simd.h"
#include "obs/metrics.h"

namespace wpred {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// m·n as a uint64 with saturation: series lengths are attacker-controlled
// through telemetry files, and a silent wrap here would only corrupt a
// metric, but metrics are still part of the observable contract.
uint64_t SaturatingCells(size_t m, size_t n) {
  const auto um = static_cast<uint64_t>(m);
  const auto un = static_cast<uint64_t>(n);
  if (un != 0 && um > std::numeric_limits<uint64_t>::max() / un) {
    return std::numeric_limits<uint64_t>::max();
  }
  return um * un;
}

void EmitDtwCounters(size_t cells_in_band, size_t m, size_t n) {
  WPRED_COUNT_ADD("similarity.dtw.calls", 1);
  WPRED_COUNT_ADD("similarity.dtw.cells_in_band",
                  static_cast<uint64_t>(cells_in_band));
  WPRED_COUNT_ADD("similarity.dtw.cells_total", SaturatingCells(m, n));
}

// Generic banded DTW over a cost policy; O(m·n) time, O(m + n) space,
// evaluated as a wavefront over anti-diagonals. Every cell (i, j) on
// anti-diagonal d = i + j depends only on diagonals d−1 (up, left) and d−2
// (diagonal move), so the whole band slice of a diagonal is one independent
// elementwise pass — no serial min chain, unlike the textbook row-order
// recurrence, whose loop-carried `curr[j-1]` dependency caps it at scalar
// speed no matter how the cost fill vectorizes.
//
// Threads a best-so-far `cutoff` (in distance space) through the band:
// when every in-band cell on two consecutive anti-diagonals is >= cutoff²,
// no completion can beat the cutoff and the rest is abandoned (a warping
// path can skip one diagonal via a diagonal step, but never two). cutoff =
// +inf reproduces plain DTW.
//
// Bit-level contract with the row-order loop (the test-only oracle in
// tests/reference_kernels.h): each cell's value is cost + an exact
// three-way min of the same three cells, and FillDiag accumulates features
// in ascending order, so both produce the bit-identical lattice and every
// completed distance is equal. Abandon granularity differs — the row loop
// tests per-row minima — so the two may abandon the same doomed candidate
// at different points, or one may complete it; the completed distance is
// then >= the cutoff, which is all any caller uses the abandon signal for.
//
// The policy provides FillDiag(i0, j0, count, out): the squared cell costs
// of one anti-diagonal's contiguous band slice, walking i0 forward and j0
// backward.
//
// Buffer discipline: three rolling diagonals indexed by i, written only on
// [i_lo, i_hi] each step plus one kInf guard on each side. i_lo and i_hi
// are nondecreasing and grow by at most 1 per diagonal, so every read
// (diag d reads d−1 on [i_lo−1, i_hi] and d−2 on [i_lo−1, i_hi−1]) lands
// in the previous writes or their guards, never on a stale cell from an
// older diagonal.
//
// Metrics are emitted only on success (including the abandoned outcome);
// the unreachable-endpoint error path records nothing, so counters never
// mix failed calls into band-hit rates.
template <typename Cost>
Result<DtwEarlyAbandon> DtwCore(size_t m, size_t n, int window, double cutoff,
                                const Cost& cost) {
  if (m == 0 || n == 0) return Status::InvalidArgument("empty series");
  // Sakoe-Chiba band centered on the diagonal. For unequal lengths the band
  // must be at least |m - n| wide or the endpoint (m, n) is unreachable —
  // the standard adjustment, so windowed DTW stays well-defined whenever the
  // window admits the (stretched) diagonal.
  const size_t len_diff = m > n ? m - n : n - m;
  const size_t band =
      window > 0 ? std::max(static_cast<size_t>(window), len_diff)
                 : std::max(m, n);  // unbounded
  const double cutoff_sq = cutoff < kInf ? cutoff * cutoff : kInf;
  std::vector<double> d2(m + 2, kInf);  // diagonal d-2
  std::vector<double> d1(m + 2, kInf);  // diagonal d-1
  std::vector<double> dc(m + 2, kInf);  // diagonal d (current)
  std::vector<double> cost_diag(m + 1);
  // Anti-diagonal 0 holds only the DP origin D[0][0] = 0; diagonal 1 is
  // all-inf boundary (first real cells appear at d = 2).
  d2[0] = 0.0;
  size_t cells_in_band = 0;
  double prev_min = kInf;
  for (size_t d = 2; d <= m + n; ++d) {
    // Row range of the band slice: i in [1, m], j = d - i in [1, n], and
    // |i - j| = |2i - d| <= band.
    const size_t i_lo = std::max({size_t{1}, d > n ? d - n : size_t{1},
                                  d > band ? (d - band + 1) / 2 : size_t{1}});
    const size_t i_hi = std::min({m, d - 1, (d + band) / 2});
    WPRED_DCHECK(i_lo <= i_hi) << "empty band diagonal despite band >= |m-n|";
    const size_t count = i_hi - i_lo + 1;
    cells_in_band += count;
    // Cell (i, d-i): the candidate series walks backward along a diagonal.
    cost.FillDiag(i_lo - 1, d - i_lo - 1, count, cost_diag.data() + i_lo);
    dc[i_lo - 1] = kInf;  // stale-cell guards (see buffer discipline above)
    dc[i_hi + 1] = kInf;
    simd::RelaxAntiDiag(cost_diag.data() + i_lo, d1.data() + i_lo,
                        d1.data() + i_lo - 1, d2.data() + i_lo - 1,
                        dc.data() + i_lo, count);
    const double diag_min = simd::MinValue(dc.data() + i_lo, count);
    WPRED_DCHECK(!std::isnan(diag_min)) << "NaN cell cost in DtwCore";
    // A monotone warping path crosses diagonal d-1 or d (a diagonal step
    // skips at most one), so if every in-band cell on BOTH is >= cutoff²,
    // no completion can finish below the cutoff.
    if (cutoff_sq < kInf && prev_min >= cutoff_sq && diag_min >= cutoff_sq) {
      EmitDtwCounters(cells_in_band, m, n);
      WPRED_COUNT_ADD("similarity.dtw.abandoned_rows",
                      static_cast<uint64_t>(m - i_hi));
      return DtwEarlyAbandon{cutoff, true};
    }
    prev_min = diag_min;
    std::swap(d2, d1);
    std::swap(d1, dc);
  }
  if (!std::isfinite(d1[m])) {
    return Status::InvalidArgument("window too narrow for series lengths");
  }
  // Band-hit rate telemetry: cells_in_band / cells_total is the fraction of
  // the full m x n lattice the Sakoe-Chiba band actually visited.
  EmitDtwCounters(cells_in_band, m, n);
  return DtwEarlyAbandon{std::sqrt(d1[m]), false};
}

// Univariate squared-difference cost over contiguous spans.
struct SpanCost {
  const double* a;
  const double* b;

  void FillDiag(size_t i0, size_t j0, size_t count, double* out) const {
    // 0 + d² is bit-exact d², so the accumulate form is the plain d² cost.
    std::fill(out, out + count, 0.0);
    simd::AccumulateAntiDiagCost(a + i0, b + j0, out, count);
  }
};

// Dependent multivariate cost over column-major spans: cell cost is the
// squared Euclidean row distance, accumulated feature-ascending (the order
// the row-order oracle sums in, which keeps the two lattices bit-identical).
struct DepColsCost {
  const double* a;
  const double* b;
  size_t m, n, features;

  void FillDiag(size_t i0, size_t j0, size_t count, double* out) const {
    std::fill(out, out + count, 0.0);
    for (size_t f = 0; f < features; ++f) {
      simd::AccumulateAntiDiagCost(a + f * m + i0, b + f * n + j0, out,
                                   count);
    }
  }
};

Status CheckFiniteInputs(bool lhs_finite, bool rhs_finite, const char* fn) {
  if (!lhs_finite) {
    return Status::InvalidArgument(std::string("non-finite lhs in ") + fn);
  }
  if (!rhs_finite) {
    return Status::InvalidArgument(std::string("non-finite rhs in ") + fn);
  }
  return Status::OK();
}

}  // namespace

Result<DtwEarlyAbandon> DtwSpanEarlyAbandon(const double* a, size_t m,
                                            const double* b, size_t n,
                                            int window, double cutoff) {
  return DtwCore(m, n, window, cutoff, SpanCost{a, b});
}

Result<DtwEarlyAbandon> DependentDtwColsEarlyAbandon(const double* a,
                                                     size_t m,
                                                     const double* b,
                                                     size_t n,
                                                     size_t features,
                                                     int window,
                                                     double cutoff) {
  return DtwCore(m, n, window, cutoff, DepColsCost{a, b, m, n, features});
}

Result<DtwEarlyAbandon> IndependentDtwColsEarlyAbandon(const double* a,
                                                       size_t m,
                                                       const double* b,
                                                       size_t n,
                                                       size_t features,
                                                       int window,
                                                       double cutoff) {
  if (features == 0) return Status::InvalidArgument("empty series");
  const auto feature_count = static_cast<double>(features);
  double total = 0.0;
  for (size_t f = 0; f < features; ++f) {
    // The mean over features must stay below `cutoff`, so this feature's
    // distance alone abandoning at cutoff·features − partial-sum proves the
    // whole candidate is out. Survivors evaluate every feature exactly, in
    // feature order, so the final mean is bit-identical to the plain kernel.
    const double feature_cutoff =
        cutoff < kInf ? cutoff * feature_count - total : kInf;
    WPRED_ASSIGN_OR_RETURN(
        const DtwEarlyAbandon r,
        DtwSpanEarlyAbandon(a + f * m, m, b + f * n, n, window,
                            std::max(feature_cutoff, 0.0)));
    if (r.abandoned) return DtwEarlyAbandon{cutoff, true};
    total += r.distance;
    if (cutoff < kInf && total >= cutoff * feature_count) {
      return DtwEarlyAbandon{cutoff, true};
    }
  }
  // Mean over features, matching IndependentLcssDistance, so the two
  // "Independent" measures scale the same way as the selected-feature count
  // varies across ablations.
  return DtwEarlyAbandon{total / feature_count, false};
}

Result<double> DtwDistance(const Vector& a, const Vector& b, int window) {
  WPRED_RETURN_IF_ERROR(
      CheckFiniteInputs(AllFinite(a), AllFinite(b), "DtwDistance"));
  WPRED_ASSIGN_OR_RETURN(const DtwEarlyAbandon r,
                         DtwSpanEarlyAbandon(a.data(), a.size(), b.data(),
                                             b.size(), window, kInf));
  return r.distance;
}

Result<double> DependentDtwDistance(const Matrix& a, const Matrix& b,
                                    int window) {
  if (a.cols() != b.cols()) {
    return Status::InvalidArgument("feature count mismatch");
  }
  WPRED_RETURN_IF_ERROR(
      CheckFiniteInputs(AllFinite(a), AllFinite(b), "DependentDtwDistance"));
  // One O(m·d) transpose buys unit-stride feature columns for the whole
  // O(m·n·d) lattice below.
  const std::vector<double> ac = a.ColumnMajor();
  const std::vector<double> bc = b.ColumnMajor();
  WPRED_ASSIGN_OR_RETURN(
      const DtwEarlyAbandon r,
      DependentDtwColsEarlyAbandon(ac.data(), a.rows(), bc.data(), b.rows(),
                                   a.cols(), window, kInf));
  return r.distance;
}

Result<double> IndependentDtwDistance(const Matrix& a, const Matrix& b,
                                      int window) {
  if (a.cols() != b.cols()) {
    return Status::InvalidArgument("feature count mismatch");
  }
  if (a.cols() == 0) return Status::InvalidArgument("empty series");
  WPRED_RETURN_IF_ERROR(CheckFiniteInputs(AllFinite(a), AllFinite(b),
                                          "IndependentDtwDistance"));
  const std::vector<double> ac = a.ColumnMajor();
  const std::vector<double> bc = b.ColumnMajor();
  WPRED_ASSIGN_OR_RETURN(
      const DtwEarlyAbandon r,
      IndependentDtwColsEarlyAbandon(ac.data(), a.rows(), bc.data(), b.rows(),
                                     a.cols(), window, kInf));
  return r.distance;
}

}  // namespace wpred
