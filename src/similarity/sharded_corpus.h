#ifndef WPRED_SIMILARITY_SHARDED_CORPUS_H_
#define WPRED_SIMILARITY_SHARDED_CORPUS_H_

#include <cstddef>
#include <vector>

#include "linalg/matrix.h"

// Sharded reference corpus (DESIGN.md §12).
//
// A reference corpus of 10^5–10^6 representation traces cannot be treated
// as one flat array by the parallel similarity stages: work distribution
// wants units much smaller than "the whole corpus" and much larger than
// "one trace", and the envelope and sketch sets want each unit's data
// contiguous so a worker streams one cache-friendly block instead of
// striding the heap.
//
// ShardedCorpus fixes the unit: traces stay in one vector in corpus order
// (global indices are unchanged — every Neighbor::index, top-k result, and
// envelope lookup is identical to the unsharded layout), and the corpus is
// overlaid with contiguous fixed-width shards of `shard_traces` traces
// (the last shard may be short). The similarity engine parallelises over
// shards, and the engine's EnvelopeSet stores one contiguous envelope
// block per shard.

namespace wpred {

/// One contiguous shard: trace indices [begin, end) of the corpus.
struct CorpusShard {
  size_t begin = 0;
  size_t end = 0;  // exclusive

  size_t size() const { return end - begin; }
};

/// A corpus of representation matrices plus its shard overlay. Grows only
/// by appending at the tail (Append); existing traces and their global
/// indices never move. The shard map is pure arithmetic over (size,
/// shard_traces), so sharding never changes what is computed — only how it
/// is laid out and scheduled — and an appended corpus has exactly the shard
/// map a from-scratch construction of the full trace list would have.
class ShardedCorpus {
 public:
  /// Default shard width. Sized so a shard's representations plus their
  /// envelope block stay within a typical L2 while one shard is still
  /// thousands of DTW lattice rows of work, enough to amortise handing it
  /// to a pool worker.
  static constexpr size_t kDefaultShardTraces = 64;

  ShardedCorpus() = default;

  /// Takes ownership of `traces`. `shard_traces == 0` selects
  /// kDefaultShardTraces; any positive width is honoured as-is (clamped to
  /// at least 1).
  explicit ShardedCorpus(std::vector<Matrix> traces, size_t shard_traces = 0);

  /// Appends traces at the tail. Existing global indices are untouched; the
  /// last (possibly short) shard fills up before new shards appear, exactly
  /// as if the full trace list had been sharded from scratch. Not
  /// thread-safe against concurrent reads — single-writer, like every
  /// mutation in the streaming layer (DESIGN.md §13).
  void Append(std::vector<Matrix> traces);

  size_t size() const { return traces_.size(); }
  bool empty() const { return traces_.empty(); }
  const Matrix& operator[](size_t index) const { return traces_[index]; }
  const std::vector<Matrix>& traces() const { return traces_; }

  /// Column-major mirror of trace `index`: cols blocks of rows contiguous
  /// doubles (column f starts at offset f·rows). The SIMD similarity
  /// kernels stream per-feature columns of many candidates; the row-major
  /// Matrix layout would cost either a strided walk or a Vector copy per
  /// (candidate, feature) pair, so the corpus carries a column-major copy,
  /// laid out shard-contiguously (one allocation per shard, traces of a
  /// shard back to back) and maintained through Append. A bitwise copy —
  /// no arithmetic — so both layouts always hold identical values.
  const double* col_data(size_t index) const {
    const ColBlock& block = col_blocks_[index / shard_traces_];
    return block.data.data() + block.offsets[index % shard_traces_];
  }

  /// Shard width in traces (>= 1, even for an empty corpus).
  size_t shard_traces() const { return shard_traces_; }
  /// ceil(size / shard_traces); 0 for an empty corpus.
  size_t num_shards() const;
  /// The s-th shard's [begin, end) range. Requires s < num_shards().
  CorpusShard shard(size_t s) const;
  /// The shard holding trace `index`. Requires index < size().
  size_t shard_of(size_t index) const { return index / shard_traces_; }

 private:
  /// Shard-contiguous column-major storage: one flat allocation per shard,
  /// `offsets[t]` the start of local trace t's cols·rows block.
  struct ColBlock {
    std::vector<double> data;
    std::vector<size_t> offsets;
  };

  /// (Re)builds the column-major blocks for shards [first_shard, end);
  /// called from the constructor (all shards) and Append (the possibly
  /// part-filled tail shard plus any new ones).
  void RebuildColBlocksFrom(size_t first_shard);

  std::vector<Matrix> traces_;
  size_t shard_traces_ = kDefaultShardTraces;
  std::vector<ColBlock> col_blocks_;
};

}  // namespace wpred

#endif  // WPRED_SIMILARITY_SHARDED_CORPUS_H_
