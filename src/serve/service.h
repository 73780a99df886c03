#ifndef WPRED_SERVE_SERVICE_H_
#define WPRED_SERVE_SERVICE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <thread>

#include "common/annotations.h"
#include "common/mutex.h"
#include "common/status.h"
#include "core/pipeline.h"
#include "serve/checkpoint.h"
#include "serve/snapshot.h"

// Resilient serving core (DESIGN.md §11): wraps the batch Pipeline in a
// long-lived service that keeps answering under partial failure.
//
//   - Readers (Predict / NearestReferences / RankWorkloads) are wait-free:
//     they pin the current FittedSnapshot through the left-right SnapshotBox
//     and run the pipeline's const, serial read path — no mutex anywhere.
//   - A supervisor thread refits in the background, one fit attempt per
//     request: the fit is a pure function of (config, corpus, selection), so
//     a retry on the same corpus can only fail again. Under
//     PipelineConfig::incremental_refit a refit reuses the published
//     snapshot's feature selection and reselects only when the corpus's
//     workload set changed. A failed refit never takes the service down: the
//     last good snapshot stays live and the service reports *degraded*
//     (state + reason + obs gauges) until a later refit succeeds.
//   - Admission control bounds concurrent in-flight reads; over the limit
//     the service sheds with Status::Unavailable instead of queueing
//     unboundedly and starving the refit thread.
//   - Successful publishes are checkpointed (atomic rename, versioned,
//     checksummed); a restarted process restores the snapshot from disk and
//     serves immediately, falling back to a cold fit only when the
//     checkpoint is missing or corrupt.

namespace wpred::serve {

struct ServiceConfig {
  PipelineConfig pipeline;
  /// Maximum concurrent reads admitted; 0 disables admission control. A
  /// read over the limit sheds with Status::Unavailable, so load cannot
  /// starve the refit thread.
  size_t max_in_flight = 1024;
  /// Checkpoint file, written after every successful publish; empty
  /// disables checkpointing entirely.
  std::string checkpoint_path;
};

/// Lifecycle / health of the service.
enum class ServingState {
  /// No snapshot published yet (not started, or initial fit failed).
  kCold,
  /// Serving the newest successfully fitted snapshot.
  kServing,
  /// Serving a stale snapshot: the most recent refit request failed. Reads
  /// still succeed.
  kDegraded,
};

class PredictionService {
 public:
  explicit PredictionService(ServiceConfig config);
  ~PredictionService();
  PredictionService(const PredictionService&) = delete;
  PredictionService& operator=(const PredictionService&) = delete;

  /// Brings the service up. With a configured checkpoint path, tries a
  /// restore first (serving immediately from disk); a missing or corrupt
  /// checkpoint falls back to a cold supervised fit of `initial`. Publishes
  /// epoch 1 (restore) or the first fitted epoch on success.
  Status Start(const ExperimentCorpus& initial);

  /// Restore-only bring-up: fails (and stays cold) when the checkpoint is
  /// missing, corrupt, or unfittable — no corpus to fall back to.
  Status StartFromCheckpoint();

  /// Wait-free read path: admission check (atomics), snapshot pin
  /// (left-right), serial pipeline call. Never takes a lock; never blocks
  /// on a concurrent refit. Errors:
  ///   - Unavailable: shed by admission control, or service never started;
  ///   - anything Pipeline::PredictThroughput reports.
  Result<Pipeline::Prediction> Predict(const Experiment& observed,
                                       int target_cpus) const;

  /// Wait-free top-k similarity (same admission semantics).
  Result<std::vector<Neighbor>> NearestReferences(const Experiment& observed,
                                                  size_t k) const;

  /// Wait-free full similarity ranking (same admission semantics).
  Result<std::vector<Pipeline::WorkloadDistance>> RankWorkloads(
      const Experiment& observed) const;

  /// Hands a fresh corpus to the supervisor thread and returns immediately.
  /// Pending requests coalesce: only the newest corpus is fitted.
  void RequestRefit(ExperimentCorpus corpus);

  /// Runs one supervised refit synchronously (the same single attempt as
  /// the background path). Returns its outcome; on failure the previous
  /// snapshot remains live and the service is degraded.
  Status RefitNow(const ExperimentCorpus& corpus);

  /// Blocks until no background refit is queued or running.
  void WaitForRefits();

  /// Serialises the live snapshot's fit closure to the configured
  /// checkpoint path (FailedPrecondition when cold or no path configured).
  Status WriteCheckpointNow() const;

  // --- introspection (all safe from any thread) ----------------------------
  ServingState state() const;
  /// Why the service is degraded; empty when healthy.
  std::string degraded_reason() const;
  /// Epoch of the published snapshot; 0 when cold.
  uint64_t snapshot_epoch() const;
  /// Seconds since the published snapshot was fitted/restored; 0 when cold.
  double snapshot_age_s() const;
  /// Reads shed by admission control since construction.
  uint64_t shed_count() const { return shed_.load(std::memory_order_relaxed); }
  /// Refit requests that failed since construction.
  uint64_t refit_failures() const {
    return refit_failures_.load(std::memory_order_relaxed);
  }
  /// Successful snapshot publishes since construction.
  uint64_t publish_count() const {
    return publishes_.load(std::memory_order_relaxed);
  }
  /// Total seconds spent in the degraded state since construction.
  double degraded_seconds_total() const;

  /// Fault-injection seam: called at the top of every refit; a non-OK
  /// return fails that refit before Fit() runs. Benches and tests use this
  /// (with telemetry/faults-corrupted corpora as the data-level
  /// counterpart) to drive the service through failure scenarios. Taking
  /// refit_mu_ here means installing a hook waits out any refit already in
  /// flight rather than racing it.
  void set_refit_fault_hook(std::function<Status()> hook) {
    MutexLock lock(refit_mu_);
    refit_fault_hook_ = std::move(hook);
  }

 private:
  /// Admission check, called with this read's in-flight slot already
  /// counted: over the limit either sheds (Unavailable) or records a soft
  /// overload. Add-then-check keeps the limit exact under contention.
  Status CheckAdmission() const;

  /// One supervised refit: one fit attempt, then the health transition.
  /// Acquires refit_mu_ for its whole duration so SnapshotBox sees a single
  /// writer.
  Status SupervisedRefit(const ExperimentCorpus& corpus)
      WPRED_EXCLUDES(refit_mu_);
  /// The fit attempt, warm from published_'s selection when its config
  /// selects like the service's; publishes and checkpoints on success.
  Status AttemptRefit(const ExperimentCorpus& corpus)
      WPRED_REQUIRES(refit_mu_);
  /// Publishes through box_. SnapshotBox::Publish demands a single draining
  /// writer; holding refit_mu_ is exactly that serialisation.
  void PublishSnapshot(SnapshotPtr snapshot) WPRED_REQUIRES(refit_mu_);
  void EnterDegraded(const Status& why) WPRED_EXCLUDES(state_mu_);
  void LeaveDegraded() WPRED_EXCLUDES(state_mu_);
  void SupervisorLoop();

  ServiceConfig config_;

  SnapshotBox box_;
  std::atomic<uint64_t> next_epoch_{1};

  // Read-path atomics (never touched under a mutex). These are counters and
  // staleness metadata, not publication points — no thread reads other data
  // "through" them — so relaxed ordering is correct and none carries
  // WPRED_ATOMIC_PUBLISHED. The snapshot itself is published by box_.
  mutable std::atomic<int64_t> in_flight_{0};
  mutable std::atomic<uint64_t> shed_{0};
  // Published-snapshot fit time as steady-clock nanos, for staleness
  // accounting without pinning a snapshot; 0 when cold.
  std::atomic<int64_t> published_at_ns_{0};

  // Health state. Written by the (single) refitting thread under state_mu_;
  // read by introspection calls. The read path never touches it.
  mutable Mutex state_mu_;
  ServingState state_ WPRED_GUARDED_BY(state_mu_) = ServingState::kCold;
  std::string degraded_reason_ WPRED_GUARDED_BY(state_mu_);
  std::optional<std::chrono::steady_clock::time_point> degraded_since_
      WPRED_GUARDED_BY(state_mu_);
  double degraded_total_s_ WPRED_GUARDED_BY(state_mu_) = 0.0;

  std::atomic<uint64_t> refit_failures_{0};
  std::atomic<uint64_t> publishes_{0};

  // Refit machinery. refit_mu_ serialises SupervisedRefit (background
  // supervisor and RefitNow callers alike) so SnapshotBox sees one writer.
  Mutex refit_mu_;
  std::function<Status()> refit_fault_hook_ WPRED_GUARDED_BY(refit_mu_);
  // The snapshot the last publish installed: the writer's own reference to
  // the selection a refit starts from. Publishing drains readers, so a
  // refit must not hold a box_ read guard across it.
  SnapshotPtr published_ WPRED_GUARDED_BY(refit_mu_);

  // Supervisor thread + its queue (depth 1: newest corpus wins).
  Mutex queue_mu_;
  CondVar queue_cv_;
  std::optional<ExperimentCorpus> queued_corpus_ WPRED_GUARDED_BY(queue_mu_);
  bool refit_running_ WPRED_GUARDED_BY(queue_mu_) = false;
  bool stopping_ WPRED_GUARDED_BY(queue_mu_) = false;
  std::thread supervisor_;
};

}  // namespace wpred::serve

#endif  // WPRED_SERVE_SERVICE_H_
