#ifndef WPRED_SIMILARITY_QUERY_H_
#define WPRED_SIMILARITY_QUERY_H_

#include <atomic>
#include <string>
#include <vector>

#include "common/annotations.h"
#include "common/mutex.h"
#include "common/status.h"
#include "linalg/matrix.h"
#include "similarity/representation.h"
#include "similarity/sharded_corpus.h"
#include "similarity/sketch.h"
#include "telemetry/experiment.h"

// Lower-bound-pruned similarity search (DESIGN.md §10, §15).
//
// Top-k retrieval against a fixed corpus of representation matrices without
// evaluating the full distance kernel for every candidate. For the DTW
// measures a cascade of cheap lower bounds runs in front of the O(m·n)
// lattice:
//
//   tier-0 sketch (O(d·bins), similarity/sketch.h — max of LB_Kim and the
//   histogram/PAA bounds, no O(m·d) work)  →  LB_Keogh (O(m·d), cached
//   column-major envelopes, both directions, SIMD kernels)  →
//   early-abandoning DTW (cutoff threaded through the per-row band,
//   vectorized recurrence over the corpus's column-major mirror)
//
// Candidates are visited in ascending (tier-0 bound, index) order — the
// UCR-suite trick, with the sketch bound replacing bare LB_Kim as the sort
// key — so near neighbours tighten the best-so-far cutoff first and the
// first tier-0 prune discards the whole remaining tail. A stage only ever
// discards candidates whose true distance provably *exceeds* the current
// k-th best (lower bounds prune on strict >, the kernel abandons against
// the next double above the cutoff), so equal-distance candidates always
// reach the heap and lose or win on the index tie-break there. The
// surviving top-k — indices and distances — is therefore bit-identical to
// a stable argsort of the exhaustive distance vector, at any thread count,
// and with the sketch tier on or off.
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

/// Per-series LB_Keogh envelope: upper/lower running min/max of every
/// column over the Sakoe-Chiba band (same shape as the series).
struct SeriesEnvelope {
  Matrix lower;
  Matrix upper;
};

/// All envelopes of one (corpus, window), stored as flat column-major
/// blocks — one contiguous lower and one upper allocation per corpus shard,
/// traces back to back, each trace laid out exactly like
/// ShardedCorpus::col_data (column f at offset f·rows). A worker scanning
/// shard s streams two allocations, and the SIMD LB_Keogh kernel
/// (simd::EnvelopeGapSq) consumes query columns, envelope columns, and the
/// corpus mirror at unit stride. Global corpus indices address it
/// (`lower`/`upper`), so callers never see the shard seams. Published by
/// EnvelopeCache; after publication it changes only by appending entries
/// for corpus traces appended at the tail (EnvelopeCache::ExtendForAppend)
/// — existing entries never move within their block.
class EnvelopeSet {
 public:
  /// Column-major running min (lower) / max (upper) envelope of corpus
  /// trace `index` (global index, as in Neighbor): cols blocks of rows
  /// doubles, same shape as the trace.
  const double* lower(size_t index) const {
    const Block& block = blocks_[index / shard_traces_];
    return block.lower.data() + block.offsets[index % shard_traces_];
  }
  const double* upper(size_t index) const {
    const Block& block = blocks_[index / shard_traces_];
    return block.upper.data() + block.offsets[index % shard_traces_];
  }

  size_t num_blocks() const { return blocks_.size(); }

 private:
  friend class EnvelopeCache;
  struct Block {
    std::vector<double> lower;
    std::vector<double> upper;
    std::vector<size_t> offsets;  // local trace t's start within the block
  };
  std::vector<Block> blocks_;
  size_t shard_traces_ = 1;
};

/// Window-keyed cache of per-shard envelope blocks for one corpus.
/// Envelopes are built once per (corpus, window) under common/parallel with
/// slot-indexed writes — the same determinism discipline as
/// PairwiseDistances — and reused by every subsequent query
/// (`similarity.envelope.cache_hits`).
///
/// Thread safety: reads (Lookup, and the GetOrBuild hit path) are lock-free
/// — built windows live in immutable nodes on a singly-linked list whose
/// head is the only mutable cell, published with release/acquire ordering.
/// Builds are serialised by a mutex and double-checked, so two threads
/// racing a cold window build it once and both observe the published
/// result. Nodes are never removed before the cache dies, so a returned
/// pointer stays valid for the cache's lifetime.
class EnvelopeCache {
 public:
  EnvelopeCache() = default;
  ~EnvelopeCache();

  /// Moves are for engine construction only (SimilarityQueryEngine is
  /// returned by value from Build); they must not race any other access.
  EnvelopeCache(EnvelopeCache&& other) noexcept;
  EnvelopeCache& operator=(EnvelopeCache&& other) noexcept;
  EnvelopeCache(const EnvelopeCache&) = delete;
  EnvelopeCache& operator=(const EnvelopeCache&) = delete;

  /// Envelopes for `window`, building them on first use (parallel over
  /// corpus shards, deterministic). The returned pointer stays valid for
  /// the cache's lifetime.
  Result<const EnvelopeSet*> GetOrBuild(const ShardedCorpus& corpus,
                                        int window, int num_threads);

  /// Cache-only lookup; nullptr when `window` has not been built. Lock-free
  /// and safe against a concurrent GetOrBuild.
  const EnvelopeSet* Lookup(int window) const;

  /// Incremental maintenance as the corpus grows: extends every cached
  /// window's EnvelopeSet with envelopes for the traces appended at indices
  /// [old_size, corpus.size()). Each trace's envelope depends on that trace
  /// alone, so the extended set is bit-identical to rebuilding the whole
  /// window from scratch — only the new traces' envelopes are computed
  /// (parallel, slot-indexed, deterministic). Unlike GetOrBuild/Lookup this
  /// MUTATES published sets: it is single-writer and must not race any
  /// reader (the streaming layer owns its engine exclusively; serving reads
  /// go through immutable snapshots and never see an appending engine).
  Status ExtendForAppend(const ShardedCorpus& corpus, size_t old_size,
                         int num_threads);

 private:
  struct Node {
    int window = 0;
    EnvelopeSet set;
    Node* next = nullptr;
  };

  const Node* Find(int window) const;

  // Publication point of the lock-free read path: a release store of a new
  // Node installs everything reachable from it for the acquire loads in
  // Find(). Writers (GetOrBuild cold path, ExtendForAppend) serialise on
  // build_mu_; only the head_ load *inside that critical section* may be
  // relaxed, and those sites carry atomics-order suppressions saying so.
  std::atomic<Node*> head_ WPRED_ATOMIC_PUBLISHED{nullptr};
  Mutex build_mu_;
};

/// Pruned top-k similarity search over an append-only corpus of
/// representation matrices. Build once per corpus, query many times; the
/// engine owns its corpus copy and the envelope cache. AppendTraces grows
/// the corpus at the tail with results bit-identical to a from-scratch
/// Build over the concatenated trace list.
class SimilarityQueryEngine {
 public:
  /// Validates the corpus (nonempty, finite, consistent arity for the MTS
  /// measures), classifies `measure` (any MeasureDistance name), shards the
  /// corpus (`shard_traces` traces per contiguous shard; 0 means
  /// ShardedCorpus::kDefaultShardTraces), and — for the DTW measures —
  /// prebuilds the per-shard LB_Keogh envelope blocks for `window` (<= 0
  /// means unbounded). `num_threads` follows common/parallel semantics;
  /// neither it nor the shard width ever changes results — sharding decides
  /// layout and scheduling granularity only.
  ///
  /// `sketch_bins` sizes the tier-0 sketch filter's per-feature histogram
  /// (similarity/sketch.h): 0 selects TraceSketchSet::kDefaultBins, >= 2 is
  /// honoured as-is, < 0 disables the sketch tier (RankNeighbors then sorts
  /// by bare LB_Kim, exactly the pre-sketch cascade), and 1 is rejected (a
  /// one-bin histogram can never separate anything — almost certainly a
  /// misconfiguration). Generic measures never build sketches. Like the
  /// shard width, the knob is pure layout/pruning policy: results are
  /// bit-identical for every legal value.
  static Result<SimilarityQueryEngine> Build(std::vector<Matrix> corpus,
                                             const std::string& measure,
                                             int window = 0,
                                             int num_threads = 0,
                                             size_t shard_traces = 0,
                                             int sketch_bins = 0);

  /// Grows the reference corpus at the tail: validates the new traces
  /// (nonempty, finite, same feature arity as the existing corpus), appends
  /// them to the sharded corpus, and extends every cached window's envelope
  /// blocks — building envelopes only for the new traces. Queries after an
  /// append return results bit-identical to an engine Built from scratch
  /// over the concatenated corpus (pinned by StreamAppendTest). Existing
  /// global indices never change. Single-writer: must not race concurrent
  /// queries on the same engine — the streaming layer owns its engine
  /// exclusively, and serving reads only ever see engines frozen inside
  /// immutable snapshots.
  Status AppendTraces(std::vector<Matrix> traces, int num_threads = 0);

  /// The k nearest corpus entries to `query`, ascending by (distance,
  /// index). Bit-identical — indices and distances — to sorting the
  /// exhaustive distance vector. k >= corpus size degrades to the exact
  /// (parallel) scan; k < corpus size runs the serial lower-bound cascade.
  Result<std::vector<Neighbor>> RankNeighbors(const Matrix& query,
                                              size_t k) const;

  /// Exact distances from `query` to every corpus entry, in corpus order
  /// (parallel over corpus shards with slot-indexed writes, deterministic).
  /// The pipeline's similarity-ranking stage uses this for its per-workload
  /// means.
  Result<Vector> Distances(const Matrix& query, int num_threads = 0) const;

  const std::vector<Matrix>& corpus() const { return corpus_.traces(); }
  const ShardedCorpus& sharded_corpus() const { return corpus_; }
  size_t num_shards() const { return corpus_.num_shards(); }
  const std::string& measure() const { return measure_; }
  int window() const { return window_; }
  /// Effective sketch histogram width; 0 when the tier is disabled (generic
  /// measure or Build(..., sketch_bins < 0)).
  int sketch_bins() const { return sketch_bins_; }

 private:
  enum class MeasureKind { kGeneric, kDependentDtw, kIndependentDtw };

  SimilarityQueryEngine() = default;

  Result<double> ExactDistance(const Matrix& query,
                               const Matrix& candidate) const;

  ShardedCorpus corpus_;
  std::string measure_;
  int window_ = 0;
  MeasureKind kind_ = MeasureKind::kGeneric;
  EnvelopeCache envelopes_;
  TraceSketchSet sketches_;
  int sketch_bins_ = 0;  // effective width; 0 = tier disabled
};

/// One-shot convenience: builds the shared normalisation and the chosen
/// representation for `corpus` and `query`, then returns the k most similar
/// corpus experiments under `measure` via the pruned engine. For repeated
/// queries against the same corpus build a SimilarityQueryEngine instead so
/// the envelope cache amortises.
Result<std::vector<Neighbor>> RankNeighbors(
    const ExperimentCorpus& corpus, const Experiment& query, size_t k,
    Representation representation, const std::string& measure,
    const std::vector<size_t>& features, int window = 0, int num_threads = 0);

namespace query_internal {

/// Envelope of one series over the band (window <= 0 means unbounded):
/// upper(i, f) / lower(i, f) = max/min of column f over rows [i-b, i+b].
SeriesEnvelope BuildEnvelope(const Matrix& series, int window);

/// BuildEnvelope into caller-owned column-major storage: writes
/// series.size() doubles each at `lower`/`upper`, column f at offset
/// f·rows — the layout EnvelopeSet and ShardedCorpus::col_data share. A
/// branch-light van Herk / Gil-Werman block prefix/suffix max that
/// autovectorizes; it computes the exact windowed min/max (no arithmetic,
/// only comparisons), so it equals the Lemire monotonic-deque oracle
/// bitwise — pinned by SimdTest.
void BuildEnvelopeColumns(const Matrix& series, int window, double* lower,
                          double* upper);

/// LB_Kim: the alignment path must match the first cells and the last
/// cells, so their costs alone lower-bound the DTW distance. Valid for any
/// pair of lengths and any window.
double LbKimDependent(const Matrix& query, const Matrix& candidate);
double LbKimIndependent(const Matrix& query, const Matrix& candidate);

/// LB_Keogh against a cached candidate envelope. Every query row aligns to
/// at least one candidate row inside the band, so its squared distance to
/// the envelope lower-bounds that row's contribution. Requires equal
/// lengths (the caller skips the bound otherwise) and an envelope built
/// with the same window the DTW kernel will use.
double LbKeoghDependent(const Matrix& query, const SeriesEnvelope& envelope);
double LbKeoghIndependent(const Matrix& query, const SeriesEnvelope& envelope);

}  // namespace query_internal

}  // namespace wpred

#endif  // WPRED_SIMILARITY_QUERY_H_
