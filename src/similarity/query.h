#ifndef WPRED_SIMILARITY_QUERY_H_
#define WPRED_SIMILARITY_QUERY_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "linalg/matrix.h"
#include "similarity/sketch.h"

// Lower-bound-pruned similarity search (DESIGN.md §10, §15).
//
// Top-k retrieval against a fixed corpus of representation matrices without
// evaluating the full distance kernel for every candidate. For the DTW
// measures a cascade of cheap lower bounds runs in front of the O(m·n)
// lattice:
//
//   tier-0 sketch (O(d·bins), similarity/sketch.h — max of LB_Kim and the
//   histogram/PAA bounds, no O(m·d) work)  →  LB_Keogh (O(m·d),
//   column-major envelopes built with the engine, both directions, SIMD
//   kernels)  →  early-abandoning DTW (cutoff threaded through the per-row
//   band, vectorized recurrence over the corpus's column-major mirror)
//
// Candidates are visited in ascending (sketch bound, index) order — the
// UCR-suite trick, with the sketch bound as the sort key — so near
// neighbours tighten the best-so-far cutoff first and the first tier-0
// prune discards the whole remaining tail. A stage only ever
// discards candidates whose true distance provably *exceeds* the current
// k-th best (lower bounds prune on strict >, the kernel abandons against
// the next double above the cutoff), so equal-distance candidates always
// reach the heap and lose or win on the index tie-break there. The
// surviving top-k — indices and distances — is therefore bit-identical to
// a stable argsort of the exhaustive distance vector, at any thread count
// and any sketch width.
//
// Norm and LCSS measures have no usable lower bound; for those the engine
// degrades to an exact scan that still avoids materialising an n×n pairwise
// matrix.

namespace wpred {

/// One retrieval hit: corpus index plus exact distance.
struct Neighbor {
  size_t index = 0;
  double distance = 0.0;

  bool operator==(const Neighbor& other) const = default;
};

/// Pruned top-k similarity search over an append-only corpus of
/// representation matrices. Build once per corpus, query many times; the
/// engine owns its corpus copy and, for the DTW measures, its index: the
/// column-major mirror, the LB_Keogh envelopes and the tier-0 sketches.
/// AppendTraces grows the corpus at the tail and rebuilds that index, so an
/// appended engine equals a from-scratch Build over the concatenated trace
/// list in every array.
///
/// Thread safety: Build computes everything a query reads before it
/// returns, and queries are const, so any number of threads may query one
/// engine concurrently without locks. AppendTraces is the only mutation and
/// must not race queries.
class SimilarityQueryEngine {
 public:
  /// Default `shard_traces`: the number of traces one Distances task scans.
  static constexpr size_t kDefaultShardTraces = 64;

  /// Validates the corpus (nonempty, finite, consistent arity for the MTS
  /// measures), classifies `measure` (any MeasureDistance name), and — for
  /// the DTW measures — builds the column-major corpus mirror, the LB_Keogh
  /// envelopes for `window` (<= 0 means unbounded) and the tier-0
  /// sketches. `shard_traces` is the task size of Distances: it scans the
  /// corpus as ⌈n / shard_traces⌉ contiguous index ranges, one parallel
  /// task each (0 means kDefaultShardTraces). `num_threads` follows
  /// common/parallel semantics; neither it nor the width ever changes
  /// results — they decide scheduling only.
  ///
  /// `sketch_bins` sizes the tier-0 sketch filter's per-feature histogram
  /// (similarity/sketch.h): 0 selects TraceSketchSet::kDefaultBins, >= 2 is
  /// honoured as-is, and anything else is InvalidArgument (a one-bin
  /// histogram can never separate anything). Generic measures never build
  /// sketches. Like the width, the knob is pure pruning policy: results are
  /// bit-identical for every legal value.
  static Result<SimilarityQueryEngine> Build(std::vector<Matrix> corpus,
                                             const std::string& measure,
                                             int window = 0,
                                             int num_threads = 0,
                                             size_t shard_traces = 0,
                                             int sketch_bins = 0);

  /// Grows the reference corpus at the tail: validates the new traces
  /// (nonempty, finite, same feature arity as the existing corpus) and
  /// appends them to the corpus. For the DTW measures it then rebuilds the
  /// whole index at the engine's window and sketch width, O(corpus) work,
  /// so the appended engine equals one Built from scratch over the
  /// concatenated corpus (pinned by SimilaritySketchTest and
  /// StreamAppendTest); generic measures only insert. An empty append is a
  /// strict no-op. Existing global indices never change. Single-writer:
  /// must not race concurrent queries on the same engine — the streaming
  /// layer owns its engine exclusively, and serving reads only ever see
  /// engines frozen inside immutable snapshots.
  Status AppendTraces(std::vector<Matrix> traces, int num_threads = 0);

  /// The k nearest corpus entries to `query`, ascending by (distance,
  /// index). Bit-identical — indices and distances — to sorting the
  /// exhaustive distance vector. k >= corpus size degrades to the exact
  /// (parallel) scan; k < corpus size runs the serial lower-bound cascade.
  Result<std::vector<Neighbor>> RankNeighbors(const Matrix& query,
                                              size_t k) const;

  /// Exact distances from `query` to every corpus entry, in corpus order
  /// (parallel over num_shards() contiguous index ranges with slot-indexed
  /// writes, deterministic). The pipeline's similarity-ranking stage uses
  /// this for its per-workload means.
  Result<Vector> Distances(const Matrix& query, int num_threads = 0) const;

  const std::vector<Matrix>& corpus() const { return corpus_; }
  /// ⌈corpus size / shard_traces⌉: the number of Distances tasks.
  size_t num_shards() const {
    return (corpus_.size() + shard_traces_ - 1) / shard_traces_;
  }
  /// Column-major mirror of corpus trace `index` (DTW measures only): cols
  /// blocks of rows contiguous doubles, column f at offset f·rows. The SIMD
  /// Keogh and DTW kernels stream per-feature columns of many candidates,
  /// which the row-major Matrix would give only by a strided walk or a
  /// copy. A bitwise copy, so both layouts always hold identical values.
  const double* col_data(size_t index) const {
    return cols_.data() + offsets_[index];
  }
  /// Column-major running min (lower) / max (upper) LB_Keogh envelope of
  /// corpus trace `index` over the engine's window (DTW measures only),
  /// laid out exactly like col_data(index).
  const double* envelope_lower(size_t index) const {
    return env_lower_.data() + offsets_[index];
  }
  const double* envelope_upper(size_t index) const {
    return env_upper_.data() + offsets_[index];
  }
  /// Tier-0 sketches of the corpus (DTW measures only).
  const TraceSketchSet& sketches() const { return sketches_; }
  const std::string& measure() const { return measure_; }
  int window() const { return window_; }
  /// Effective sketch histogram width; 0 for the generic measures, which
  /// never sketch.
  int sketch_bins() const { return sketches_.bins(); }

 private:
  enum class MeasureKind { kGeneric, kDependentDtw, kIndependentDtw };

  SimilarityQueryEngine() = default;

  // Builds the DTW index over the whole corpus: one offsets vector, one
  // slot-indexed ParallelFor over traces filling the mirror and the
  // envelopes at window_, then the sketch set at `sketch_bins` (>= 2).
  Status BuildIndex(int sketch_bins, int num_threads);

  std::vector<Matrix> corpus_;
  size_t shard_traces_ = kDefaultShardTraces;
  std::string measure_;
  int window_ = 0;
  MeasureKind kind_ = MeasureKind::kGeneric;
  // DTW measures only: the column-major mirror and the two envelope arrays,
  // trace i at offsets_[i] in each.
  std::vector<double> cols_;
  std::vector<double> env_lower_;
  std::vector<double> env_upper_;
  std::vector<size_t> offsets_;
  TraceSketchSet sketches_;  // DTW measures only
};

namespace query_internal {

/// Envelope of `series` over the band (window <= 0 means unbounded) into
/// caller-owned column-major storage: writes series.size() doubles each at
/// `lower`/`upper`, column f at offset f·rows — the layout of
/// SimilarityQueryEngine::col_data and its envelopes — with upper / lower =
/// max / min of column f over rows [i-b, i+b]. A branch-light van Herk /
/// Gil-Werman block prefix/suffix max that autovectorizes; it computes the
/// exact windowed min/max (no arithmetic, only comparisons), so it equals
/// the Lemire monotonic-deque oracle bitwise — pinned by SimdTest.
void BuildEnvelopeColumns(const Matrix& series, int window, double* lower,
                          double* upper);

}  // namespace query_internal

}  // namespace wpred

#endif  // WPRED_SIMILARITY_QUERY_H_
