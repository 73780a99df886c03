#ifndef WPRED_SERVE_SNAPSHOT_H_
#define WPRED_SERVE_SNAPSHOT_H_

#include <atomic>
#include <cstdint>
#include <memory>

#include "common/annotations.h"
#include "common/status.h"
#include "core/pipeline.h"

// Immutable fitted state + the left-right publication cell that serves it
// (DESIGN.md §11).
//
// A FittedSnapshot freezes everything a prediction needs — the fitted
// Pipeline (models, similarity engine and its envelopes, feature selection,
// normalisation, quality report) plus the exact (config, corpus, selection)
// closure that produced it. Snapshots are never mutated after construction;
// a refit builds a brand-new one, warm from the published snapshot's
// selection when the config allows, and publishes it atomically through
// SnapshotBox.
//
// SnapshotBox is a left-right cell: two instance slots, a `lr` selector
// saying which slot readers should use, and two reader-arrival counters
// indexed by a version flag. Readers arrive (one fetch_add), read the
// selector, use that slot, and depart (one fetch_sub) — wait-free, no
// retry loop, no mutex, regardless of writer activity. The single writer
// installs the next snapshot into the unobserved slot, flips the selector,
// then drains both reader epochs before returning, so the slot it retires
// is provably unobserved by the time the *next* publish overwrites it.
// Readers therefore always observe a fully constructed snapshot that stays
// alive for the whole guard lifetime; the cost lands on the writer, which
// blocks until in-flight readers depart — guards must be scoped to one
// read, never parked.

namespace wpred::serve {

/// One immutable generation of fitted serving state.
struct FittedSnapshot {
  /// Publication counter: 1 for the first fit, +1 per successful refit.
  uint64_t epoch = 0;
  /// The fitted pipeline. Const after construction; Pipeline's read paths
  /// (PredictThroughput / NearestReferences / RankWorkloads) are const and
  /// safe to call from any number of threads concurrently.
  std::shared_ptr<const Pipeline> pipeline;
  /// The exact fit closure — config + reference corpus, plus the selection
  /// in `pipeline->selection()` — this snapshot was built from.
  /// Checkpointing serialises this closure; restoring refits it
  /// deterministically, reproducing the snapshot bit-identically.
  PipelineConfig config;
  ExperimentCorpus source_corpus;
  /// Whether this snapshot's fit ran feature selection (a cold fit, or a
  /// refit whose corpus changed the workload set) instead of reusing the
  /// selection it was built from.
  bool reselected = false;
  /// Wall seconds the fit took (metadata for staleness accounting / benches).
  double fit_seconds = 0.0;
};

using SnapshotPtr = std::shared_ptr<const FittedSnapshot>;

/// Fits `config` on `corpus` and wraps the result in a snapshot tagged with
/// `epoch`: a cold Pipeline::Fit when `selection` is null, else
/// Pipeline::Refit from `selection` (warm under config.incremental_refit
/// unless the workload set changed). On success the pipeline's parallelism
/// knob is pinned to 1 so every later (read-path) call runs inline — zero
/// thread-pool code, zero locks — which is bit-identical to any other
/// thread count by the determinism contract. The fit itself still
/// parallelises per `config`.
Result<SnapshotPtr> BuildSnapshot(const PipelineConfig& config,
                                  const ExperimentCorpus& corpus,
                                  uint64_t epoch,
                                  const FeatureSelection* selection);

/// Left-right publication cell for SnapshotPtr: wait-free readers, one
/// blocking writer. Acquire() may be called from any thread at any time;
/// Publish() must be externally serialised (PredictionService runs it from
/// one supervisor thread under its refit mutex).
class SnapshotBox {
 public:
  SnapshotBox() = default;
  SnapshotBox(const SnapshotBox&) = delete;
  SnapshotBox& operator=(const SnapshotBox&) = delete;

  /// Pins the current snapshot for the guard's lifetime. get() is nullptr
  /// iff nothing has been published yet.
  class ReadGuard {
   public:
    ReadGuard(ReadGuard&& other) noexcept
        : box_(other.box_), version_(other.version_), snapshot_(other.snapshot_) {
      other.box_ = nullptr;
      other.snapshot_ = nullptr;
    }
    ReadGuard(const ReadGuard&) = delete;
    ReadGuard& operator=(const ReadGuard&) = delete;
    ReadGuard& operator=(ReadGuard&&) = delete;
    ~ReadGuard() {
      if (box_ != nullptr) {
        box_->readers_[version_].fetch_sub(1, std::memory_order_release);
      }
    }

    const FittedSnapshot* get() const { return snapshot_; }
    const FittedSnapshot& operator*() const { return *snapshot_; }
    const FittedSnapshot* operator->() const { return snapshot_; }
    explicit operator bool() const { return snapshot_ != nullptr; }

   private:
    friend class SnapshotBox;
    ReadGuard(const SnapshotBox* box, uint32_t version,
              const FittedSnapshot* snapshot)
        : box_(box), version_(version), snapshot_(snapshot) {}

    const SnapshotBox* box_;
    uint32_t version_;
    const FittedSnapshot* snapshot_;
  };

  /// Wait-free: one fetch_add + two loads on the way in, one fetch_sub on
  /// the way out. Never blocks, never retries, never touches a mutex.
  ReadGuard Acquire() const {
    const uint32_t version = version_index_.load(std::memory_order_seq_cst);
    readers_[version].fetch_add(1, std::memory_order_seq_cst);
    // Read the slot selector only AFTER arriving: the writer drains both
    // reader epochs after flipping `lr_`, so a reader counted in an epoch
    // can never still be using the slot the next publish overwrites.
    const uint32_t slot = lr_.load(std::memory_order_seq_cst);
    return ReadGuard(this, version, slots_[slot].get());
  }

  /// Installs `next` as the snapshot all future readers see, then waits for
  /// every reader that might still be on the previous one to depart. Single
  /// writer only. `next` must be non-null.
  void Publish(SnapshotPtr next);

  /// Epoch of the currently published snapshot; 0 before the first publish.
  uint64_t CurrentEpoch() const {
    ReadGuard guard = Acquire();
    return guard ? guard->epoch : 0;
  }

 private:
  void WaitForReaders(uint32_t version) const;

  // The left-right protocol: every operation on these three atomics is
  // seq_cst (or release on the reader-departure fetch_sub) on purpose — the
  // writer's flip-then-drain handshake needs a single total order between
  // the selector flip and the reader arrivals. WPRED_ATOMIC_PUBLISHED makes
  // the atomics-order lint pass flag any relaxed operation that sneaks in.
  // slots_ itself is plain data: the writer only stores to a slot it has
  // proven unobserved (both epochs drained since the flip), and readers
  // reach it only through the lr_ load in Acquire().
  SnapshotPtr slots_[2];
  std::atomic<uint32_t> lr_ WPRED_ATOMIC_PUBLISHED{0};
  std::atomic<uint32_t> version_index_ WPRED_ATOMIC_PUBLISHED{0};
  mutable std::atomic<int64_t> readers_[2] WPRED_ATOMIC_PUBLISHED = {0, 0};
};

}  // namespace wpred::serve

#endif  // WPRED_SERVE_SNAPSHOT_H_
