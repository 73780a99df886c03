#include "similarity/sketch.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/check.h"
#include "common/parallel.h"
#include "common/simd.h"
#include "common/string_util.h"
#include "obs/metrics.h"
#include "similarity/representation.h"

namespace wpred {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// Sakoe-Chiba band the DTW kernel will actually run with — widened to the
// length difference exactly like DtwCore, so the paa term's alignment-range
// reasoning matches the kernel cell for cell.
size_t BandFor(size_t m, size_t n, int window) {
  const size_t diff = m > n ? m - n : n - m;
  return window > 0 ? std::max(static_cast<size_t>(window), diff)
                    : std::max(m, n);
}

// Squared gap between intervals [a_lo, a_hi] and [b_lo, b_hi]; 0 when they
// touch or overlap.
double IntervalGapSq(double a_lo, double a_hi, double b_lo, double b_hi) {
  const double gap = std::max(0.0, std::max(b_lo - a_hi, a_lo - b_hi));
  return gap * gap;
}

// The PAA segment containing row r of a length-n series under the
// ⌊s·n/P⌋ boundary convention: the largest s with ⌊s·n/P⌋ <= r, i.e.
// ⌊((r+1)·P − 1) / n⌋. Exactness matters on the high end of a span — an
// undershoot there would exclude the segment actually holding an alignable
// row and break admissibility (n < P makes the naive r·P/n off by more
// than one).
size_t SegOfRow(size_t r, size_t n, size_t segments) {
  return ((r + 1) * segments - 1) / n;
}

// Σ_s ℓ_s · gap² for feature f: every query row in segment s aligns (under
// the band) only to candidate rows whose values lie inside the computed
// span, so each of the ℓ_s rows contributes at least gap² to its path
// cell's feature-f cost.
double PaaFeatureTermSq(const double* q, const double* c,
                        const SketchLayout& L, size_t f, size_t band) {
  const auto m = static_cast<size_t>(q[0]);
  const auto n = static_cast<size_t>(c[0]);
  const auto segments = static_cast<size_t>(L.segments);
  const double* q_lo = q + L.paa_lo() + f * segments;
  const double* q_hi = q + L.paa_hi() + f * segments;
  const double* c_lo = c + L.paa_lo() + f * segments;
  const double* c_hi = c + L.paa_hi() + f * segments;
  const double c_min = c[L.min() + f];
  const double c_max = c[L.max() + f];
  double acc = 0.0;
  for (size_t s = 0; s < segments; ++s) {
    const size_t r0 = s * m / segments;
    const size_t r1 = (s + 1) * m / segments;
    if (r1 == r0) continue;  // segment emptied by m < segments
    // Candidate rows reachable from query rows [r0, r1) inside the band.
    const size_t row_lo = r0 > band ? r0 - band : 0;
    const size_t row_hi = std::min(n - 1, r1 - 1 + band);
    double span_lo;
    double span_hi;
    if (row_lo == 0 && row_hi == n - 1) {
      span_lo = c_min;  // whole candidate reachable: use the global range
      span_hi = c_max;
    } else {
      // Low end may undershoot (extra segments only widen the span —
      // admissible); the high end is exact so no alignable row's segment
      // is ever excluded.
      const size_t s_lo = row_lo * segments / n;
      const size_t s_hi = std::min(segments - 1, SegOfRow(row_hi, n, segments));
      span_lo = kInf;
      span_hi = -kInf;
      for (size_t t = s_lo; t <= s_hi; ++t) {
        span_lo = std::min(span_lo, c_lo[t]);
        span_hi = std::max(span_hi, c_hi[t]);
      }
      if (!(span_lo <= span_hi)) {  // defensive: all-empty range
        span_lo = c_min;
        span_hi = c_max;
      }
    }
    acc += static_cast<double>(r1 - r0) *
           IntervalGapSq(q_lo[s], q_hi[s], span_lo, span_hi);
  }
  return acc;
}

}  // namespace

namespace sketch_internal {

void BuildSketchRecord(const Matrix& series, const Vector& lo,
                       const Vector& hi, const SketchLayout& layout,
                       double* out) {
  const size_t m = series.rows();
  const size_t d = series.cols();
  WPRED_DCHECK_EQ(d, layout.features);
  WPRED_DCHECK_GE(m, 1u);
  const int bins = layout.bins;
  const auto segments = static_cast<size_t>(layout.segments);
  out[0] = static_cast<double>(m);
  double* first = out + layout.first();
  double* last = out + layout.last();
  double* vmin = out + layout.min();
  double* vmax = out + layout.max();
  double* counts = out + layout.counts();
  double* gapsq = out + layout.gapsq();
  double* paa_lo = out + layout.paa_lo();
  double* paa_hi = out + layout.paa_hi();
  std::fill(counts, counts + d * static_cast<size_t>(bins), 0.0);
  std::fill(paa_lo, paa_lo + d * segments, kInf);
  std::fill(paa_hi, paa_hi + d * segments, -kInf);
  for (size_t f = 0; f < d; ++f) {
    first[f] = series(0, f);
    last[f] = series(m - 1, f);
    const double frame_lo = lo[f];
    const double width = hi[f] - frame_lo;
    const double inv_width = width > 0.0 ? 1.0 / width : 0.0;
    double mn = series(0, f);
    double mx = mn;
    double* f_counts = counts + f * static_cast<size_t>(bins);
    double* f_lo = paa_lo + f * segments;
    double* f_hi = paa_hi + f * segments;
    for (size_t r = 0; r < m; ++r) {
      const double v = series(r, f);
      mn = std::min(mn, v);
      mx = std::max(mx, v);
      // HistFpBin clamps both edges, so out-of-frame values (query values
      // past the corpus's frame) land in the unbounded edge bins.
      f_counts[representation_internal::HistFpBin((v - frame_lo) * inv_width,
                                                  bins)] += 1.0;
      const size_t s = SegOfRow(r, m, segments);
      f_lo[s] = std::min(f_lo[s], v);
      f_hi[s] = std::max(f_hi[s], v);
    }
    vmin[f] = mn;
    vmax[f] = mx;
    // Squared gap from each bin to this trace's nearest occupied bin:
    // adjacent bins share an edge, so k bins of separation guarantee at
    // least (k−1) bin widths of value distance — also valid against the
    // unbounded edge bins, whose open side points away from every other
    // bin. Two sweeps: distance to the nearest occupied bin at or below,
    // then at or above.
    double* f_gapsq = gapsq + f * static_cast<size_t>(bins);
    const double bin_width = width / static_cast<double>(bins);
    int nearest = -bins;  // farther than any real bin
    for (int b = 0; b < bins; ++b) {
      if (f_counts[b] > 0.0) nearest = b;
      f_gapsq[b] = static_cast<double>(b - nearest);
    }
    nearest = 2 * bins;
    for (int b = bins - 1; b >= 0; --b) {
      if (f_counts[b] > 0.0) nearest = b;
      const double dist = std::min(f_gapsq[b], static_cast<double>(nearest - b));
      const double g = std::max(dist - 1.0, 0.0) * bin_width;
      f_gapsq[b] = g * g;
    }
  }
}

}  // namespace sketch_internal

Status TraceSketchSet::Build(const std::vector<Matrix>& traces, int bins,
                             int num_threads) {
  if (traces.empty()) {
    return Status::InvalidArgument("cannot sketch an empty corpus");
  }
  if (bins < 2) {
    return Status::InvalidArgument(
        StrFormat("sketch bins must be >= 2; got %d", bins));
  }
  const size_t d = traces[0].cols();
  layout_ = SketchLayout{d, bins, kSegments};
  // Value frame: per-feature min/max over the whole corpus.
  lo_.assign(d, kInf);
  hi_.assign(d, -kInf);
  for (const Matrix& trace : traces) {
    for (size_t r = 0; r < trace.rows(); ++r) {
      for (size_t f = 0; f < d; ++f) {
        lo_[f] = std::min(lo_[f], trace(r, f));
        hi_[f] = std::max(hi_[f], trace(r, f));
      }
    }
  }
  // Size the records first, so the parallel loop below only does
  // slot-indexed writes (determinism discipline of DESIGN.md §7).
  const size_t stride = layout_.stride();
  records_.resize(traces.size() * stride);
  WPRED_RETURN_IF_ERROR(
      ParallelFor(traces.size(), num_threads, [&](size_t i) -> Status {
        sketch_internal::BuildSketchRecord(traces[i], lo_, hi_, layout_,
                                           records_.data() + i * stride);
        return Status::OK();
      }));
  WPRED_COUNT_ADD("similarity.sketch.built",
                  static_cast<uint64_t>(traces.size()));
  return Status::OK();
}

std::vector<double> TraceSketchSet::SketchSeries(const Matrix& series) const {
  WPRED_DCHECK(built());
  std::vector<double> record(layout_.stride());
  sketch_internal::BuildSketchRecord(series, lo_, hi_, layout_,
                                     record.data());
  return record;
}

SketchBound DependentSketchBound(const double* q, const double* c,
                                 const SketchLayout& layout, int window) {
  const auto m = static_cast<size_t>(q[0]);
  const auto n = static_cast<size_t>(c[0]);
  const size_t d = layout.features;
  const size_t db = d * static_cast<size_t>(layout.bins);
  double kim_sq = simd::SquaredL2(q + layout.first(), c + layout.first(), d);
  if (m + n > 2) {
    kim_sq += simd::SquaredL2(q + layout.last(), c + layout.last(), d);
  }
  // counts and gapsq are feature-major and contiguous, so the per-feature
  // dot products fuse into one d·bins-long kernel call per direction.
  const double hist_q = simd::Dot(q + layout.counts(), c + layout.gapsq(), db);
  const double hist_c = simd::Dot(c + layout.counts(), q + layout.gapsq(), db);
  const size_t band = BandFor(m, n, window);
  double paa_q = 0.0;
  double paa_c = 0.0;
  for (size_t f = 0; f < d; ++f) {
    paa_q += PaaFeatureTermSq(q, c, layout, f, band);
    paa_c += PaaFeatureTermSq(c, q, layout, f, band);
  }
  const double combined_sq =
      std::max({kim_sq, hist_q, hist_c, paa_q, paa_c});
  return {std::sqrt(combined_sq), std::sqrt(kim_sq)};
}

SketchBound IndependentSketchBound(const double* q, const double* c,
                                   const SketchLayout& layout, int window) {
  const auto m = static_cast<size_t>(q[0]);
  const auto n = static_cast<size_t>(c[0]);
  const size_t d = layout.features;
  const auto bins = static_cast<size_t>(layout.bins);
  const bool distinct_endpoints = m + n > 2;
  const size_t band = BandFor(m, n, window);
  double total = 0.0;
  double kim_total = 0.0;
  for (size_t f = 0; f < d; ++f) {
    const double df = q[layout.first() + f] - c[layout.first() + f];
    double kim_sq = df * df;
    if (distinct_endpoints) {
      const double dl = q[layout.last() + f] - c[layout.last() + f];
      kim_sq += dl * dl;
    }
    const double hist_q = simd::Dot(q + layout.counts() + f * bins,
                                    c + layout.gapsq() + f * bins, bins);
    const double hist_c = simd::Dot(c + layout.counts() + f * bins,
                                    q + layout.gapsq() + f * bins, bins);
    const double paa_q = PaaFeatureTermSq(q, c, layout, f, band);
    const double paa_c = PaaFeatureTermSq(c, q, layout, f, band);
    // Per-feature max BEFORE the sqrt-mean: each term bounds this
    // feature's own univariate DTW², so the mean of per-feature maxima is
    // tighter than the max of whole-sum bounds.
    total += std::sqrt(std::max({kim_sq, hist_q, hist_c, paa_q, paa_c}));
    kim_total += std::sqrt(kim_sq);
  }
  const auto features = static_cast<double>(d);
  return {total / features, kim_total / features};
}

}  // namespace wpred
