#ifndef WPRED_COMMON_SIMD_H_
#define WPRED_COMMON_SIMD_H_

#include <algorithm>
#include <cstddef>

// Portable SIMD layer (DESIGN.md §15).
//
// wpred's similarity hot loops (envelope build, LB_Keogh accumulation, the
// DTW band recurrence, sketch dot products) are memory-streaming kernels
// over contiguous double spans. This header gives them one vocabulary of
// fixed-width lane operations written so any modern compiler
// auto-vectorizes them — independent lane accumulators, branchless
// min/max/clamp arithmetic, unit-stride loads — with NO intrinsics and no
// ISA dependency. On a scalar-only target the same code compiles to the
// plain loop and stays correct.
//
// Two kernel classes with different bit-level contracts:
//
//  - Elementwise kernels (AccumulateAntiDiagCost, RelaxAntiDiag): each
//    output element is one fixed expression of its inputs, so the result
//    is bit-identical however the loop is scheduled. Exact DTW distances
//    are built only from these (plus exact min), which is why the
//    wavefront DTW equals the textbook row-order loop bitwise.
//
//  - Reduction kernels (SquaredL2, Dot, EnvelopeGapSq, MinValue/MaxValue):
//    each sums into kLanes independent accumulators and reduces them in one
//    fixed order, so the result is deterministic, but it may differ from a
//    sequential loop in the last ulp (float addition is not associative;
//    min/max reductions ARE exact). wpred only uses these for lower bounds
//    and diagnostics — quantities whose value may change pruning work but
//    never query results.
//
// There is one implementation of each kernel. The sequential loops that
// pin these contracts live in tests/reference_kernels.h, test-only.

namespace wpred {
namespace simd {

/// Lane count of the lane-split paths. Eight doubles: one AVX-512 register,
/// two AVX2 registers, four NEON registers — wide enough that the compiler
/// can unroll into whatever the target offers, small enough that the tail
/// loop stays negligible for wpred's typical span lengths (tens to a few
/// thousand).
inline constexpr size_t kLanes = 8;

/// Σ (a[i] − b[i])². Reduction kernel.
inline double SquaredL2(const double* a, const double* b, size_t n) {
  double lane[kLanes] = {0.0};
  size_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    for (size_t l = 0; l < kLanes; ++l) {
      const double d = a[i + l] - b[i + l];
      lane[l] += d * d;
    }
  }
  double tail = 0.0;
  for (; i < n; ++i) {
    const double d = a[i] - b[i];
    tail += d * d;
  }
  return (((lane[0] + lane[1]) + (lane[2] + lane[3])) +
          ((lane[4] + lane[5]) + (lane[6] + lane[7]))) +
         tail;
}

/// Σ a[i]·b[i]. Reduction kernel.
inline double Dot(const double* a, const double* b, size_t n) {
  double lane[kLanes] = {0.0};
  size_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    for (size_t l = 0; l < kLanes; ++l) lane[l] += a[i + l] * b[i + l];
  }
  double tail = 0.0;
  for (; i < n; ++i) tail += a[i] * b[i];
  return (((lane[0] + lane[1]) + (lane[2] + lane[3])) +
          ((lane[4] + lane[5]) + (lane[6] + lane[7]))) +
         tail;
}

/// LB_Keogh accumulator: Σ over i of the squared distance from v[i] to the
/// interval [lo[i], hi[i]] (zero inside). Branchless — exactly one of the
/// two max() terms is nonzero per element when lo <= hi — so the compiler
/// turns the body into maxpd/fma with no unpredictable branch, unlike the
/// if/else ladder it replaces. Reduction kernel.
inline double EnvelopeGapSq(const double* v, const double* lo,
                            const double* hi, size_t n) {
  double lane[kLanes] = {0.0};
  size_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    for (size_t l = 0; l < kLanes; ++l) {
      const double above = std::max(v[i + l] - hi[i + l], 0.0);
      const double below = std::max(lo[i + l] - v[i + l], 0.0);
      lane[l] += above * above + below * below;
    }
  }
  double tail = 0.0;
  for (; i < n; ++i) {
    const double above = std::max(v[i] - hi[i], 0.0);
    const double below = std::max(lo[i] - v[i], 0.0);
    tail += above * above + below * below;
  }
  return (((lane[0] + lane[1]) + (lane[2] + lane[3])) +
          ((lane[4] + lane[5]) + (lane[6] + lane[7]))) +
         tail;
}

/// cost[t] += (a[t] − b_rev[−t])² — the anti-diagonal cost fill: `a` walks
/// forward while `b_rev` walks BACKWARD from its start, which is how cell
/// (i, j) coordinates move along a DTW anti-diagonal (i+j constant).
/// Elementwise; compilers vectorize the reversed stream with permuted
/// loads. The accumulation order over successive calls (one per feature) is
/// the caller's, so repeated application reproduces the sequential per-cell
/// feature sum bit-exactly.
inline void AccumulateAntiDiagCost(const double* a, const double* b_rev,
                                   double* cost, size_t n) {
  for (size_t t = 0; t < n; ++t) {
    const double d = a[t] - b_rev[-static_cast<ptrdiff_t>(t)];
    cost[t] += d * d;
  }
}

/// out[t] = cost[t] + min(left[t], min(up[t], diag[t])) — the DTW wavefront
/// relax: every cell on an anti-diagonal depends only on the two previous
/// diagonals, so the whole span is one independent elementwise pass (this
/// is what removes the row recurrence's serial min chain). min is exact and
/// the grouping matches the sequential three-way min, so each cell's value
/// is bit-identical to the row-order reference whatever the lane schedule.
inline void RelaxAntiDiag(const double* cost, const double* left,
                          const double* up, const double* diag, double* out,
                          size_t n) {
  for (size_t t = 0; t < n; ++t) {
    out[t] = cost[t] + std::min(left[t], std::min(up[t], diag[t]));
  }
}

/// min / max over a span. Exact reductions (min/max lose nothing to
/// reassociation), so they equal a sequential loop bitwise.
inline double MinValue(const double* a, size_t n) {
  double m = a[0];
  for (size_t i = 1; i < n; ++i) m = std::min(m, a[i]);
  return m;
}
inline double MaxValue(const double* a, size_t n) {
  double m = a[0];
  for (size_t i = 1; i < n; ++i) m = std::max(m, a[i]);
  return m;
}

}  // namespace simd
}  // namespace wpred

#endif  // WPRED_COMMON_SIMD_H_
