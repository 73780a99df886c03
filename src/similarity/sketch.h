#ifndef WPRED_SIMILARITY_SKETCH_H_
#define WPRED_SIMILARITY_SKETCH_H_

#include <cstddef>
#include <vector>

#include "common/status.h"
#include "linalg/matrix.h"

// Tier-0 similarity sketches (DESIGN.md §15).
//
// A per-trace sketch small enough that the whole corpus's sketches stream
// through cache, carrying enough structure to lower-bound the DTW distance
// before ANY O(m·d) work: per feature the endpoints (LB_Kim's cells), the
// value range, an equi-width histogram fingerprint over the corpus's
// per-feature value frame (reusing representation_internal::HistFpBin, so
// the edge policy matches Hist-FP exactly), a precomputed table of squared
// gaps from each histogram bin to the trace's nearest occupied bin, and a
// PAA (piecewise aggregate) min/max profile per segment.
//
// The combined bound is the max of four admissible DTW lower bounds:
//
//   kim   — the first cells and (when distinct) last cells of any alignment
//           path are fixed; their cost alone bounds the total.
//   hist  — every query row is covered by >= 1 path cell, and that cell's
//           candidate value lies in SOME occupied candidate bin, so the row
//           contributes at least gap(bin(q_row), nearest occupied bin)²;
//           summing per-row guarantees gives Σ_f <q_counts_f, c_gapsq_f> —
//           two d·bins dot products per pair. Edge bins are conceptually
//           unbounded (HistFpBin clamps out-of-frame values into them), so
//           the bound also holds for queries whose values leave the frame.
//   paa   — same per-row argument against the candidate's PAA profile: a
//           query row in segment s aligns, under the Sakoe-Chiba band the
//           kernel will use, only to candidate rows inside a computable
//           segment range; the interval gap from the query segment's
//           [min,max] to that range's [min,max] bounds every such cell.
//   (each also evaluated with the roles of query and candidate swapped)
//
// All four bound the same path cells from below, so they max (never sum).
// The bound is used exactly like LB_Kim in the cascade — strict-inequality
// pruning against the current k-th distance — so it can discard only
// candidates whose true distance provably exceeds the cutoff and the
// engine's bit-identical-top-k contract is untouched.
//
namespace wpred {

/// Field offsets of one flat sketch record. A record is `stride()` doubles:
///   [0]        rows of the trace
///   [first]    d doubles  — first row's value per feature
///   [last]     d          — last row's value per feature
///   [min/max]  d each     — per-feature value range
///   [counts]   d·bins     — histogram row counts, feature-major
///   [gapsq]    d·bins     — squared value gap from bin b to the nearest
///                           occupied bin of this trace (0 if b occupied)
///   [paa_lo/paa_hi] d·segments each — per-segment min/max, feature-major
///                           (+inf/-inf for segments emptied by rows < segments)
struct SketchLayout {
  size_t features = 0;
  int bins = 0;
  int segments = 0;

  size_t first() const { return 1; }
  size_t last() const { return 1 + features; }
  size_t min() const { return 1 + 2 * features; }
  size_t max() const { return 1 + 3 * features; }
  size_t counts() const { return 1 + 4 * features; }
  size_t gapsq() const {
    return counts() + features * static_cast<size_t>(bins);
  }
  size_t paa_lo() const {
    return gapsq() + features * static_cast<size_t>(bins);
  }
  size_t paa_hi() const {
    return paa_lo() + features * static_cast<size_t>(segments);
  }
  size_t stride() const {
    return paa_hi() + features * static_cast<size_t>(segments);
  }
};

/// A tier-0 bound for one (query, candidate) pair, in distance space.
struct SketchBound {
  double combined = 0.0;  // max of all admissible components (>= kim)
  double kim = 0.0;       // the LB_Kim component alone (prune attribution)
};

/// Sketches of one corpus, stored as one flat array of fixed-stride records
/// in corpus order (global corpus indices address it). The engine builds it
/// over its whole corpus, at Build and again after every append.
class TraceSketchSet {
 public:
  /// Default histogram bins per feature; segments is fixed. Eight of each
  /// keeps a record a few cache lines for typical feature counts while the
  /// hist/paa terms still resolve clusters fig05/06-style corpora separate.
  static constexpr int kDefaultBins = 8;
  static constexpr int kSegments = 8;

  TraceSketchSet() = default;

  /// True once Build succeeded; all other accessors require it.
  bool built() const { return layout_.bins > 0; }
  const SketchLayout& layout() const { return layout_; }
  int bins() const { return layout_.bins; }

  /// Takes the per-feature value frame (min/max) over `traces` and sketches
  /// every trace against it (parallel over traces, slot-indexed,
  /// deterministic). `bins` must be >= 2.
  Status Build(const std::vector<Matrix>& traces, int bins, int num_threads);

  /// Record of corpus trace `index` (global index).
  const double* At(size_t index) const {
    return records_.data() + index * layout_.stride();
  }

  /// Builds a query-side record against the corpus's frame.
  std::vector<double> SketchSeries(const Matrix& series) const;

 private:
  SketchLayout layout_;
  Vector lo_, hi_;  // per-feature value frame (size = features)
  std::vector<double> records_;  // trace i's record at i · stride
};

/// Tier-0 bound for dependent DTW (one alignment over all features; cell
/// cost = squared Euclidean row distance). `window` must be the window the
/// DTW kernel will run with (<= 0 unbounded); the internal band mirrors
/// DtwCore's widening to the length difference.
SketchBound DependentSketchBound(const double* q, const double* c,
                                 const SketchLayout& layout, int window);

/// Tier-0 bound for independent DTW (mean of per-feature distances); the
/// component bounds max per feature BEFORE the sqrt-mean, which is tighter
/// than maxing the totals.
SketchBound IndependentSketchBound(const double* q, const double* c,
                                   const SketchLayout& layout, int window);

namespace sketch_internal {

/// Builds one flat record for `series` against frame [lo, hi] (per-feature
/// intervals; a degenerate interval disables the hist/paa gap terms for
/// that feature — they contribute 0, which is trivially admissible).
/// Writes exactly `layout.stride()` doubles at `out`.
void BuildSketchRecord(const Matrix& series, const Vector& lo,
                       const Vector& hi, const SketchLayout& layout,
                       double* out);

}  // namespace sketch_internal

}  // namespace wpred

#endif  // WPRED_SIMILARITY_SKETCH_H_
