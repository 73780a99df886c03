#include "similarity/query.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <mutex>
#include <numeric>
#include <utility>

#include "common/parallel.h"
#include "common/simd.h"
#include "common/string_util.h"
#include "obs/metrics.h"
#include "similarity/dtw.h"
#include "similarity/measures.h"

namespace wpred {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// Ascending (distance, index) order: the tie-break every ranking surface in
// wpred pins, so equal-distance neighbours resolve to the smaller corpus
// index on every platform.
bool NeighborLess(const Neighbor& a, const Neighbor& b) {
  if (a.distance != b.distance) return a.distance < b.distance;
  return a.index < b.index;
}

double RowSquaredDistance(const Matrix& a, size_t ra, const Matrix& b,
                          size_t rb) {
  double acc = 0.0;
  for (size_t f = 0; f < a.cols(); ++f) {
    const double d = a(ra, f) - b(rb, f);
    acc += d * d;
  }
  return acc;
}

// Scratch buffers for the van Herk / Gil-Werman envelope pass, hoisted so
// one allocation serves every column of a series.
struct EnvelopeScratch {
  std::vector<double> xmax, xmin;
  std::vector<double> pre_max, pre_min;
  std::vector<double> suf_max, suf_min;
};

// van Herk / Gil-Werman windowed min/max: pad the column to length
// rows + 2·band, take block prefix and suffix scans with block width
// w = 2·band + 1, then every window [i, i + 2·band] (padded coordinates)
// spans at most two adjacent blocks and its extremum is
// combine(suffix[i], prefix[i + 2·band]). Three comparisons per element,
// no branches or deque churn, and the combine pass is elementwise. Exact —
// only comparisons, no arithmetic — so it agrees with the Lemire
// monotonic-deque oracle (tests/reference_kernels.h) up to the sign of a
// zero (both return the true windowed extremum).
//
// Requires band + 1 < rows (wider bands take the global min/max shortcut
// in BuildEnvelopeColumns).
void EnvelopeColumnVanHerk(const double* col, size_t rows, size_t band,
                           EnvelopeScratch& s, double* lower, double* upper) {
  const size_t w = 2 * band + 1;
  const size_t np = rows + 2 * band;
  s.xmax.assign(np, -kInf);
  s.xmin.assign(np, kInf);
  std::copy(col, col + rows, s.xmax.begin() + band);
  std::copy(col, col + rows, s.xmin.begin() + band);
  s.pre_max.resize(np);
  s.pre_min.resize(np);
  s.suf_max.resize(np);
  s.suf_min.resize(np);
  for (size_t j = 0; j < np; ++j) {
    if (j % w == 0) {
      s.pre_max[j] = s.xmax[j];
      s.pre_min[j] = s.xmin[j];
    } else {
      s.pre_max[j] = std::max(s.pre_max[j - 1], s.xmax[j]);
      s.pre_min[j] = std::min(s.pre_min[j - 1], s.xmin[j]);
    }
  }
  for (size_t j = np; j-- > 0;) {
    if (j % w == w - 1 || j == np - 1) {
      s.suf_max[j] = s.xmax[j];
      s.suf_min[j] = s.xmin[j];
    } else {
      s.suf_max[j] = std::max(s.suf_max[j + 1], s.xmax[j]);
      s.suf_min[j] = std::min(s.suf_min[j + 1], s.xmin[j]);
    }
  }
  for (size_t i = 0; i < rows; ++i) {
    upper[i] = std::max(s.suf_max[i], s.pre_max[i + 2 * band]);
    lower[i] = std::min(s.suf_min[i], s.pre_min[i + 2 * band]);
  }
}

}  // namespace

namespace query_internal {

void BuildEnvelopeColumns(const Matrix& series, int window, double* lower,
                          double* upper) {
  const size_t rows = series.rows();
  const size_t cols = series.cols();
  const size_t band = window > 0 ? static_cast<size_t>(window) : rows;
  std::vector<double> col(rows);
  const auto load_column = [&](size_t f) {
    for (size_t r = 0; r < rows; ++r) col[r] = series(r, f);
  };
  if (band + 1 >= rows) {
    // Every window covers the whole column: the envelope degenerates to the
    // global min/max (the common unbounded-window case), one reduction per
    // column instead of a windowed pass.
    for (size_t f = 0; f < cols; ++f) {
      load_column(f);
      const double hi = simd::MaxValue(col.data(), rows);
      const double lo = simd::MinValue(col.data(), rows);
      std::fill(upper + f * rows, upper + (f + 1) * rows, hi);
      std::fill(lower + f * rows, lower + (f + 1) * rows, lo);
    }
    return;
  }
  EnvelopeScratch scratch;
  for (size_t f = 0; f < cols; ++f) {
    load_column(f);
    EnvelopeColumnVanHerk(col.data(), rows, band, scratch, lower + f * rows,
                          upper + f * rows);
  }
}

SeriesEnvelope BuildEnvelope(const Matrix& series, int window) {
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

double LbKimDependent(const Matrix& query, const Matrix& candidate) {
  WPRED_DCHECK_EQ(query.cols(), candidate.cols());
  WPRED_DCHECK(query.rows() > 0 && candidate.rows() > 0);
  double acc = RowSquaredDistance(query, 0, candidate, 0);
  if (query.rows() + candidate.rows() > 2) {
    acc += RowSquaredDistance(query, query.rows() - 1, candidate,
                              candidate.rows() - 1);
  }
  return std::sqrt(acc);
}

double LbKimIndependent(const Matrix& query, const Matrix& candidate) {
  WPRED_DCHECK_EQ(query.cols(), candidate.cols());
  WPRED_DCHECK(query.rows() > 0 && candidate.rows() > 0);
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

double LbKeoghDependent(const Matrix& query, const SeriesEnvelope& envelope) {
  WPRED_DCHECK_EQ(query.rows(), envelope.upper.rows());
  WPRED_DCHECK_EQ(query.cols(), envelope.upper.cols());
  double acc = 0.0;
  for (size_t i = 0; i < query.rows(); ++i) {
    for (size_t f = 0; f < query.cols(); ++f) {
      const double v = query(i, f);
      const double hi = envelope.upper(i, f);
      const double lo = envelope.lower(i, f);
      if (v > hi) {
        const double d = v - hi;
        acc += d * d;
      } else if (v < lo) {
        const double d = lo - v;
        acc += d * d;
      }
    }
  }
  return std::sqrt(acc);
}

double LbKeoghIndependent(const Matrix& query, const SeriesEnvelope& envelope) {
  WPRED_DCHECK_EQ(query.rows(), envelope.upper.rows());
  WPRED_DCHECK_EQ(query.cols(), envelope.upper.cols());
  double total = 0.0;
  for (size_t f = 0; f < query.cols(); ++f) {
    double acc = 0.0;
    for (size_t i = 0; i < query.rows(); ++i) {
      const double v = query(i, f);
      const double hi = envelope.upper(i, f);
      const double lo = envelope.lower(i, f);
      if (v > hi) {
        const double d = v - hi;
        acc += d * d;
      } else if (v < lo) {
        const double d = lo - v;
        acc += d * d;
      }
    }
    total += std::sqrt(acc);
  }
  return total / static_cast<double>(query.cols());
}

}  // namespace query_internal

EnvelopeCache::~EnvelopeCache() {
  Node* node = head_.load(std::memory_order_acquire);
  while (node != nullptr) {
    Node* next = node->next;
    delete node;
    node = next;
  }
}

EnvelopeCache::EnvelopeCache(EnvelopeCache&& other) noexcept
    : head_(other.head_.exchange(nullptr, std::memory_order_acq_rel)) {}

EnvelopeCache& EnvelopeCache::operator=(EnvelopeCache&& other) noexcept {
  if (this == &other) return *this;
  Node* mine = head_.exchange(
      other.head_.exchange(nullptr, std::memory_order_acq_rel),
      std::memory_order_acq_rel);
  while (mine != nullptr) {
    Node* next = mine->next;
    delete mine;
    mine = next;
  }
  return *this;
}

const EnvelopeCache::Node* EnvelopeCache::Find(int window) const {
  // Acquire on the head pairs with the release publish in GetOrBuild, so a
  // reader that sees a node sees its fully-built EnvelopeSet; `next` links
  // are immutable after publication.
  for (const Node* node = head_.load(std::memory_order_acquire);
       node != nullptr; node = node->next) {
    if (node->window == window) return node;
  }
  return nullptr;
}

Result<const EnvelopeSet*> EnvelopeCache::GetOrBuild(
    const ShardedCorpus& corpus, int window, int num_threads) {
  if (const Node* hit = Find(window)) {
    WPRED_COUNT_ADD("similarity.envelope.cache_hits", 1);
    return &hit->set;
  }
  // Cold window: serialise the build, then re-check — a racing caller may
  // have published this window while we waited for the lock.
  MutexLock lock(build_mu_);
  if (const Node* hit = Find(window)) {
    WPRED_COUNT_ADD("similarity.envelope.cache_hits", 1);
    return &hit->set;
  }
  WPRED_COUNT_ADD("similarity.envelope.cache_misses", 1);
  EnvelopeSet set;
  set.shard_traces_ = corpus.shard_traces();
  set.blocks_.resize(corpus.num_shards());
  WPRED_RETURN_IF_ERROR(
      ParallelFor(corpus.num_shards(), num_threads, [&](size_t s) -> Status {
        const CorpusShard shard = corpus.shard(s);
        EnvelopeSet::Block& block = set.blocks_[s];
        block.offsets.assign(shard.size(), 0);
        size_t total = 0;
        for (size_t i = shard.begin; i < shard.end; ++i) {
          block.offsets[i - shard.begin] = total;
          total += corpus[i].size();
        }
        block.lower.assign(total, 0.0);
        block.upper.assign(total, 0.0);
        for (size_t i = shard.begin; i < shard.end; ++i) {
          const size_t off = block.offsets[i - shard.begin];
          query_internal::BuildEnvelopeColumns(corpus[i], window,
                                               block.lower.data() + off,
                                               block.upper.data() + off);
        }
        return Status::OK();
      }));
  WPRED_COUNT_ADD("similarity.envelope.builds",
                  static_cast<uint64_t>(corpus.size()));
  Node* node = new Node;
  node->window = window;
  node->set = std::move(set);
  // wpred-lint: allow(atomics-order): head_ is written only under build_mu_,
  // held here — the relaxed load cannot miss a concurrent publish, and the
  // release store below orders the whole node before readers can reach it.
  node->next = head_.load(std::memory_order_relaxed);
  head_.store(node, std::memory_order_release);
  return &node->set;
}

Status EnvelopeCache::ExtendForAppend(const ShardedCorpus& corpus,
                                      size_t old_size, int num_threads) {
  WPRED_DCHECK_LE(old_size, corpus.size());
  const size_t new_count = corpus.size() - old_size;
  if (new_count == 0) return Status::OK();
  // The build mutex serialises against concurrent GetOrBuild calls; readers
  // must be quiescent (single-writer contract in the header).
  MutexLock lock(build_mu_);
  for (Node* node = head_.load(std::memory_order_acquire); node != nullptr;
       node = node->next) {
    EnvelopeSet& set = node->set;
    WPRED_DCHECK_EQ(set.shard_traces_, corpus.shard_traces());
    // Pre-size the tail blocks — extend the possibly part-filled last old
    // shard and add new ones — so the parallel loop below only does
    // slot-indexed writes (determinism discipline of DESIGN.md §7).
    // Existing offsets and envelope data are untouched: appends only grow
    // each block's arrays at the tail.
    set.blocks_.resize(corpus.num_shards());
    for (size_t s = corpus.shard_of(old_size == 0 ? 0 : old_size - 1);
         s < corpus.num_shards(); ++s) {
      const CorpusShard shard = corpus.shard(s);
      EnvelopeSet::Block& block = set.blocks_[s];
      const size_t old_local = block.offsets.size();
      block.offsets.resize(shard.size());
      size_t total =
          old_local == 0
              ? 0
              : block.offsets[old_local - 1] +
                    corpus[shard.begin + old_local - 1].size();
      for (size_t t = old_local; t < shard.size(); ++t) {
        block.offsets[t] = total;
        total += corpus[shard.begin + t].size();
      }
      block.lower.resize(total, 0.0);
      block.upper.resize(total, 0.0);
    }
    WPRED_RETURN_IF_ERROR(
        ParallelFor(new_count, num_threads, [&](size_t j) -> Status {
          const size_t i = old_size + j;
          EnvelopeSet::Block& block = set.blocks_[i / set.shard_traces_];
          const size_t off = block.offsets[i % set.shard_traces_];
          query_internal::BuildEnvelopeColumns(corpus[i], node->window,
                                               block.lower.data() + off,
                                               block.upper.data() + off);
          return Status::OK();
        }));
    WPRED_COUNT_ADD("similarity.envelope.builds",
                    static_cast<uint64_t>(new_count));
    WPRED_COUNT_ADD("similarity.envelope.appended",
                    static_cast<uint64_t>(new_count));
  }
  return Status::OK();
}

const EnvelopeSet* EnvelopeCache::Lookup(int window) const {
  const Node* node = Find(window);
  if (node == nullptr) {
    WPRED_COUNT_ADD("similarity.envelope.cache_misses", 1);
    return nullptr;
  }
  WPRED_COUNT_ADD("similarity.envelope.cache_hits", 1);
  return &node->set;
}

Result<SimilarityQueryEngine> SimilarityQueryEngine::Build(
    std::vector<Matrix> corpus, const std::string& measure, int window,
    int num_threads, size_t shard_traces, int sketch_bins) {
  if (corpus.empty()) {
    return Status::InvalidArgument("need at least one corpus entry");
  }
  if (sketch_bins == 1) {
    return Status::InvalidArgument(
        "sketch_bins must be 0 (default), >= 2, or negative (disabled); a "
        "one-bin histogram can never separate traces");
  }
  SimilarityQueryEngine engine;
  if (measure == "Dependent-DTW") {
    engine.kind_ = MeasureKind::kDependentDtw;
  } else if (measure == "Independent-DTW") {
    engine.kind_ = MeasureKind::kIndependentDtw;
  } else {
    const std::vector<std::string> norms = NormMeasureNames();
    const std::vector<std::string> mts = MtsOnlyMeasureNames();
    const bool known =
        std::find(norms.begin(), norms.end(), measure) != norms.end() ||
        std::find(mts.begin(), mts.end(), measure) != mts.end();
    if (!known) {
      return Status::NotFound("unknown similarity measure: " + measure);
    }
    engine.kind_ = MeasureKind::kGeneric;
  }
  for (size_t i = 0; i < corpus.size(); ++i) {
    if (corpus[i].empty()) {
      return Status::InvalidArgument(
          StrFormat("corpus entry %zu is an empty matrix", i));
    }
    if (!AllFinite(corpus[i])) {
      return Status::InvalidArgument(
          StrFormat("corpus entry %zu has non-finite values", i));
    }
    if (corpus[i].cols() != corpus[0].cols()) {
      return Status::InvalidArgument(
          StrFormat("corpus entry %zu has %zu features, entry 0 has %zu", i,
                    corpus[i].cols(), corpus[0].cols()));
    }
  }
  engine.measure_ = measure;
  engine.window_ = window;
  engine.corpus_ = ShardedCorpus(std::move(corpus), shard_traces);
  if (engine.kind_ != MeasureKind::kGeneric) {
    WPRED_RETURN_IF_ERROR(
        engine.envelopes_.GetOrBuild(engine.corpus_, window, num_threads)
            .status());
    if (sketch_bins >= 0) {
      const int bins =
          sketch_bins == 0 ? TraceSketchSet::kDefaultBins : sketch_bins;
      WPRED_RETURN_IF_ERROR(
          engine.sketches_.Build(engine.corpus_, bins, num_threads));
      engine.sketch_bins_ = bins;
    }
  }
  return engine;
}

Status SimilarityQueryEngine::AppendTraces(std::vector<Matrix> traces,
                                           int num_threads) {
  if (corpus_.empty()) {
    return Status::FailedPrecondition(
        "AppendTraces on an engine that was never Built");
  }
  if (traces.empty()) return Status::OK();
  const size_t old_size = corpus_.size();
  for (size_t j = 0; j < traces.size(); ++j) {
    if (traces[j].empty()) {
      return Status::InvalidArgument(
          StrFormat("appended trace %zu (global index %zu) is an empty "
                    "matrix",
                    j, old_size + j));
    }
    if (!AllFinite(traces[j])) {
      return Status::InvalidArgument(
          StrFormat("appended trace %zu (global index %zu) has non-finite "
                    "values",
                    j, old_size + j));
    }
    if (traces[j].cols() != corpus_[0].cols()) {
      return Status::InvalidArgument(
          StrFormat("appended trace %zu has %zu features, corpus has %zu", j,
                    traces[j].cols(), corpus_[0].cols()));
    }
  }
  corpus_.Append(std::move(traces));
  WPRED_COUNT_ADD("similarity.corpus.appended_traces",
                  static_cast<uint64_t>(corpus_.size() - old_size));
  if (kind_ != MeasureKind::kGeneric) {
    WPRED_RETURN_IF_ERROR(
        envelopes_.ExtendForAppend(corpus_, old_size, num_threads));
    if (sketch_bins_ > 0) {
      WPRED_RETURN_IF_ERROR(
          sketches_.ExtendForAppend(corpus_, old_size, num_threads));
    }
  }
  return Status::OK();
}

Result<double> SimilarityQueryEngine::ExactDistance(
    const Matrix& query, const Matrix& candidate) const {
  switch (kind_) {
    case MeasureKind::kDependentDtw:
      return DependentDtwDistance(query, candidate, window_);
    case MeasureKind::kIndependentDtw:
      return IndependentDtwDistance(query, candidate, window_);
    case MeasureKind::kGeneric:
      break;
  }
  return MeasureDistance(measure_, query, candidate);
}

Result<Vector> SimilarityQueryEngine::Distances(const Matrix& query,
                                                int num_threads) const {
  if (query.empty()) return Status::InvalidArgument("empty query");
  if (!AllFinite(query)) {
    return Status::InvalidArgument("non-finite values in query");
  }
  // Shard-granular parallel loop: one task per contiguous shard, each with
  // slot-indexed writes into the global-index output, so results are in
  // corpus order and independent of schedule and thread count.
  Vector out(corpus_.size());
  if (kind_ != MeasureKind::kGeneric) {
    if (query.cols() != corpus_[0].cols()) {
      return Status::InvalidArgument("feature count mismatch");
    }
    // One column-major query copy serves every candidate; candidates come
    // from the corpus's shard-contiguous column-major mirror, so the DTW
    // span kernels never copy a column.
    const std::vector<double> query_cols = query.ColumnMajor();
    WPRED_RETURN_IF_ERROR(ParallelFor(
        corpus_.num_shards(), num_threads, [&](size_t s) -> Status {
          const CorpusShard shard = corpus_.shard(s);
          for (size_t i = shard.begin; i < shard.end; ++i) {
            Result<DtwEarlyAbandon> r =
                kind_ == MeasureKind::kDependentDtw
                    ? DependentDtwColsEarlyAbandon(
                          query_cols.data(), query.rows(),
                          corpus_.col_data(i), corpus_[i].rows(),
                          query.cols(), window_, kInf)
                    : IndependentDtwColsEarlyAbandon(
                          query_cols.data(), query.rows(),
                          corpus_.col_data(i), corpus_[i].rows(),
                          query.cols(), window_, kInf);
            WPRED_ASSIGN_OR_RETURN(const DtwEarlyAbandon ea, std::move(r));
            out[i] = ea.distance;
          }
          return Status::OK();
        }));
    return out;
  }
  WPRED_RETURN_IF_ERROR(
      ParallelFor(corpus_.num_shards(), num_threads, [&](size_t s) -> Status {
        const CorpusShard shard = corpus_.shard(s);
        for (size_t i = shard.begin; i < shard.end; ++i) {
          WPRED_ASSIGN_OR_RETURN(out[i], ExactDistance(query, corpus_[i]));
        }
        return Status::OK();
      }));
  return out;
}

Result<std::vector<Neighbor>> SimilarityQueryEngine::RankNeighbors(
    const Matrix& query, size_t k) const {
  if (k == 0) return Status::InvalidArgument("k must be >= 1");
  if (query.empty()) return Status::InvalidArgument("empty query");
  if (!AllFinite(query)) {
    return Status::InvalidArgument("non-finite values in query");
  }
  const size_t n = corpus_.size();
  const size_t k_eff = std::min(k, n);

  if (k_eff == n) {
    // Whole-corpus ranking: nothing can be pruned (every candidate is in
    // the result), so take the exact parallel scan plus a stable argsort.
    WPRED_ASSIGN_OR_RETURN(const Vector distances, Distances(query));
    WPRED_COUNT_ADD("similarity.query.candidates", static_cast<uint64_t>(n));
    WPRED_COUNT_ADD("similarity.query.exact", static_cast<uint64_t>(n));
    std::vector<Neighbor> ranked(n);
    for (size_t i = 0; i < n; ++i) ranked[i] = {i, distances[i]};
    std::sort(ranked.begin(), ranked.end(), NeighborLess);
    return ranked;
  }

  const bool dtw = kind_ != MeasureKind::kGeneric;
  const EnvelopeSet* envelopes = nullptr;
  std::vector<double> query_cols;
  std::vector<double> query_env_lower;
  std::vector<double> query_env_upper;
  std::vector<double> query_sketch;
  if (dtw) {
    if (query.cols() != corpus_[0].cols()) {
      return Status::InvalidArgument("feature count mismatch");
    }
    envelopes = envelopes_.Lookup(window_);
    if (envelopes == nullptr) {
      return Status::FailedPrecondition(
          "envelope cache missing the engine window");  // unreachable: Build
                                                        // prebuilds it
    }
    // Per-call query-side state, built once and reused by every candidate:
    // the column-major mirror feeds the SIMD Keogh and DTW kernels, the
    // query envelope buys the tighter max of both LB_Keogh directions, and
    // the query sketch drives the tier-0 bound.
    query_cols = query.ColumnMajor();
    query_env_lower.resize(query.size());
    query_env_upper.resize(query.size());
    query_internal::BuildEnvelopeColumns(query, window_,
                                         query_env_lower.data(),
                                         query_env_upper.data());
    if (sketch_bins_ > 0) query_sketch = sketches_.SketchSeries(query);
  }

  WPRED_COUNT_ADD("similarity.query.candidates", static_cast<uint64_t>(n));
  std::vector<Neighbor> heap;  // max-heap on (distance, index)
  heap.reserve(k_eff);
  const auto consider = [&heap, k_eff](const Neighbor& entry) {
    if (heap.size() < k_eff) {
      heap.push_back(entry);
      std::push_heap(heap.begin(), heap.end(), NeighborLess);
    } else if (NeighborLess(entry, heap.front())) {
      std::pop_heap(heap.begin(), heap.end(), NeighborLess);
      heap.back() = entry;
      std::push_heap(heap.begin(), heap.end(), NeighborLess);
    }
  };

  if (!dtw) {
    // No usable lower bound: serial exact scan in ascending index order.
    for (size_t idx = 0; idx < n; ++idx) {
      WPRED_COUNT_ADD("similarity.query.exact", 1);
      WPRED_ASSIGN_OR_RETURN(const double distance,
                             MeasureDistance(measure_, query, corpus_[idx]));
      consider({idx, distance});
    }
    std::sort(heap.begin(), heap.end(), NeighborLess);
    return heap;
  }

  // UCR-suite visit order: candidates ascend by (tier-0 bound, index) — the
  // sketch bound when the tier is on (max of LB_Kim and the histogram/PAA
  // bounds, O(d·bins) per candidate), bare LB_Kim otherwise — so the true
  // neighbours tend to tighten the cutoff first, and because the sort key
  // is itself the first cascade stage, the first tier-0 prune discards
  // every remaining candidate at once.
  //
  // Correctness under an arbitrary visit order needs two guards the naive
  // ascending-index scan does not:
  //   - lower bounds discard on strict `lb > cutoff` only — a candidate
  //     tying the current k-th distance may still win the index tie-break,
  //     so it must reach the heap, where NeighborLess settles the tie;
  //   - the kernel abandons against the next double above the cutoff, so
  //     abandonment proves distance > cutoff, never distance == cutoff.
  // Survivors' distances come from the same kernel cells as the plain scan
  // (the cutoff decides when to stop, never what is computed), so the
  // result stays bit-identical to the exhaustive argsort — with the sketch
  // tier on or off.
  std::vector<Neighbor> by_lb(n);
  std::vector<double> kims;  // sketch mode: the kim component, for counters
  if (sketch_bins_ > 0) {
    kims.resize(n);
    const SketchLayout& layout = sketches_.layout();
    for (size_t idx = 0; idx < n; ++idx) {
      const SketchBound bound =
          kind_ == MeasureKind::kDependentDtw
              ? DependentSketchBound(query_sketch.data(), sketches_.At(idx),
                                     layout, window_)
              : IndependentSketchBound(query_sketch.data(), sketches_.At(idx),
                                       layout, window_);
      by_lb[idx] = {idx, bound.combined};
      kims[idx] = bound.kim;
    }
  } else {
    for (size_t idx = 0; idx < n; ++idx) {
      by_lb[idx] = {idx,
                    kind_ == MeasureKind::kDependentDtw
                        ? query_internal::LbKimDependent(query, corpus_[idx])
                        : query_internal::LbKimIndependent(query,
                                                           corpus_[idx])};
    }
  }
  std::sort(by_lb.begin(), by_lb.end(), NeighborLess);

  for (size_t pos = 0; pos < n; ++pos) {
    const size_t idx = by_lb[pos].index;
    const Matrix& candidate = corpus_[idx];
    const bool full = heap.size() == k_eff;
    const double cutoff = full ? heap.front().distance : kInf;
    if (full && by_lb[pos].distance > cutoff) {
      // Sorted by the tier-0 bound: every remaining candidate is out too.
      // Attribution: a tail candidate whose kim component alone clears the
      // cutoff would have been pruned by the pre-sketch cascade as well
      // (kim_pruned); the rest are pruned only because the sketch's
      // histogram/PAA bounds are tighter (sketch.pruned).
      const auto remaining = static_cast<uint64_t>(n - pos);
      WPRED_COUNT_ADD("similarity.lb.pruned", remaining);
      if (kims.empty()) {
        WPRED_COUNT_ADD("similarity.lb.kim_pruned", remaining);
      } else {
        uint64_t kim_alone = 0;
        for (size_t p = pos; p < n; ++p) {
          if (kims[by_lb[p].index] > cutoff) ++kim_alone;
        }
        WPRED_COUNT_ADD("similarity.lb.kim_pruned", kim_alone);
        WPRED_COUNT_ADD("similarity.sketch.pruned", remaining - kim_alone);
      }
      break;
    }
    if (full && query.rows() == candidate.rows()) {
      // LB_Keogh is only valid when the Sakoe-Chiba band is exactly the
      // envelope's window, i.e. for equal lengths (unequal lengths widen
      // the band to the length difference); other candidates fall through
      // to the early-abandoning kernel. Both directions (query against the
      // cached candidate envelope, candidate against the query's) are
      // valid lower bounds, so the max prunes strictly more. All operands
      // are column-major and contiguous, so each direction is one SIMD
      // envelope-gap reduction (per feature, for the independent measure).
      const size_t rows = candidate.rows();
      const double* cand_cols = corpus_.col_data(idx);
      double lb;
      if (kind_ == MeasureKind::kDependentDtw) {
        lb = std::max(
            std::sqrt(simd::EnvelopeGapSq(query_cols.data(),
                                          envelopes->lower(idx),
                                          envelopes->upper(idx),
                                          query.size())),
            std::sqrt(simd::EnvelopeGapSq(cand_cols, query_env_lower.data(),
                                          query_env_upper.data(),
                                          query.size())));
      } else {
        const size_t d = query.cols();
        double forward = 0.0;
        double backward = 0.0;
        for (size_t f = 0; f < d; ++f) {
          forward += std::sqrt(
              simd::EnvelopeGapSq(query_cols.data() + f * rows,
                                  envelopes->lower(idx) + f * rows,
                                  envelopes->upper(idx) + f * rows, rows));
          backward += std::sqrt(
              simd::EnvelopeGapSq(cand_cols + f * rows,
                                  query_env_lower.data() + f * rows,
                                  query_env_upper.data() + f * rows, rows));
        }
        lb = std::max(forward, backward) / static_cast<double>(d);
      }
      if (lb > cutoff) {
        WPRED_COUNT_ADD("similarity.lb.pruned", 1);
        WPRED_COUNT_ADD("similarity.lb.keogh_pruned", 1);
        continue;
      }
    }
    WPRED_COUNT_ADD("similarity.query.exact", 1);
    const double abandon_cutoff =
        cutoff < kInf ? std::nextafter(cutoff, kInf) : kInf;
    Result<DtwEarlyAbandon> outcome =
        kind_ == MeasureKind::kDependentDtw
            ? DependentDtwColsEarlyAbandon(query_cols.data(), query.rows(),
                                           corpus_.col_data(idx),
                                           candidate.rows(), query.cols(),
                                           window_, abandon_cutoff)
            : IndependentDtwColsEarlyAbandon(query_cols.data(), query.rows(),
                                             corpus_.col_data(idx),
                                             candidate.rows(), query.cols(),
                                             window_, abandon_cutoff);
    WPRED_ASSIGN_OR_RETURN(const DtwEarlyAbandon ea, std::move(outcome));
    if (ea.abandoned) {
      WPRED_COUNT_ADD("similarity.dtw.abandoned_candidates", 1);
      continue;
    }
    consider({idx, ea.distance});
  }
  std::sort(heap.begin(), heap.end(), NeighborLess);
  return heap;
}

Result<std::vector<Neighbor>> RankNeighbors(
    const ExperimentCorpus& corpus, const Experiment& query, size_t k,
    Representation representation, const std::string& measure,
    const std::vector<size_t>& features, int window, int num_threads) {
  if (corpus.empty()) {
    return Status::InvalidArgument("need at least one corpus experiment");
  }
  const NormalizationContext ctx = ComputeNormalization(corpus);
  WPRED_ASSIGN_OR_RETURN(
      std::vector<Matrix> reps,
      ParallelMap<Matrix>(corpus.size(), num_threads,
                          [&](size_t i) -> Result<Matrix> {
                            return BuildRepresentation(representation,
                                                       corpus[i], features,
                                                       ctx);
                          }));
  WPRED_ASSIGN_OR_RETURN(
      const Matrix query_rep,
      BuildRepresentation(representation, query, features, ctx));
  WPRED_ASSIGN_OR_RETURN(
      const SimilarityQueryEngine engine,
      SimilarityQueryEngine::Build(std::move(reps), measure, window,
                                   num_threads));
  return engine.RankNeighbors(query_rep, k);
}

}  // namespace wpred
