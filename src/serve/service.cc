#include "serve/service.h"

#include <chrono>
#include <thread>
#include <utility>

#include "common/string_util.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace wpred::serve {

namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// A published selection carries over only to a refit whose config selects
// the same way: the same selector, top-k, sub-sample count and
// representation (MTS ranks resource features only).
bool SelectsAlike(const PipelineConfig& a, const PipelineConfig& b) {
  return a.selector == b.selector && a.top_k == b.top_k &&
         a.subsamples == b.subsamples && a.representation == b.representation;
}

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// RAII admission slot: releases the in-flight count on scope exit.
class InFlightGuard {
 public:
  explicit InFlightGuard(std::atomic<int64_t>& in_flight)
      : in_flight_(in_flight) {
    in_flight_.fetch_add(1, std::memory_order_relaxed);
  }
  ~InFlightGuard() { in_flight_.fetch_sub(1, std::memory_order_relaxed); }
  InFlightGuard(const InFlightGuard&) = delete;
  InFlightGuard& operator=(const InFlightGuard&) = delete;

 private:
  std::atomic<int64_t>& in_flight_;
};

}  // namespace

PredictionService::PredictionService(ServiceConfig config)
    : config_(std::move(config)) {
  supervisor_ = std::thread([this] { SupervisorLoop(); });
}

PredictionService::~PredictionService() {
  {
    MutexLock lock(queue_mu_);
    stopping_ = true;
  }
  queue_cv_.NotifyAll();
  if (supervisor_.joinable()) supervisor_.join();
}

// --- bring-up ---------------------------------------------------------------

Status PredictionService::Start(const ExperimentCorpus& initial) {
  if (!config_.checkpoint_path.empty()) {
    const Status restored = StartFromCheckpoint();
    if (restored.ok()) return restored;
    if (restored.code() != StatusCode::kNotFound) {
      // Corrupt / unreadable / version-skewed checkpoint: reject it loudly,
      // then fall back to the cold fit below.
      WPRED_COUNT_ADD("serve.checkpoint.rejected", 1);
    }
  }
  return RefitNow(initial);
}

Status PredictionService::StartFromCheckpoint() {
  if (config_.checkpoint_path.empty()) {
    return Status::FailedPrecondition(
        "no checkpoint_path configured; cannot restore");
  }
  WPRED_ASSIGN_OR_RETURN(CheckpointContents contents,
                         ReadCheckpoint(config_.checkpoint_path));
  // Refitting the checkpointed closure from its selection reproduces the
  // pre-crash snapshot bit-identically, warm or cold (deterministic
  // pipeline; DESIGN.md §7/§11).
  MutexLock refit_lock(refit_mu_);
  obs::Span span("serve.restore");
  WPRED_ASSIGN_OR_RETURN(
      SnapshotPtr snapshot,
      BuildSnapshot(contents.config, contents.corpus,
                    next_epoch_.load(std::memory_order_relaxed),
                    &contents.selection));
  PublishSnapshot(std::move(snapshot));
  LeaveDegraded();
  return Status::OK();
}

// --- read path --------------------------------------------------------------

Status PredictionService::CheckAdmission() const {
  if (config_.max_in_flight == 0) return Status::OK();
  if (in_flight_.load(std::memory_order_relaxed) <=
      static_cast<int64_t>(config_.max_in_flight)) {
    return Status::OK();
  }
  shed_.fetch_add(1, std::memory_order_relaxed);
  WPRED_COUNT_ADD("serve.shed", 1);
  return Status::Unavailable(StrFormat(
      "admission control: %zu reads already in flight (max_in_flight); "
      "retry later",
      config_.max_in_flight));
}

Result<Pipeline::Prediction> PredictionService::Predict(
    const Experiment& observed, int target_cpus) const {
  const auto start = Clock::now();
  WPRED_COUNT_ADD("serve.predict.calls", 1);
  InFlightGuard admitted(in_flight_);
  WPRED_RETURN_IF_ERROR(CheckAdmission());

  SnapshotBox::ReadGuard snapshot = box_.Acquire();
  if (!snapshot) {
    return Status::Unavailable(
        "service is cold: no snapshot has been published yet (Start() not "
        "called or initial fit failed)");
  }
  Result<Pipeline::Prediction> result =
      snapshot->pipeline->PredictThroughput(observed, target_cpus);

  WPRED_HIST_RECORD("serve.predict.latency_s", SecondsSince(start));
  const int64_t fitted_ns = published_at_ns_.load(std::memory_order_relaxed);
  if (fitted_ns != 0) {
    WPRED_HIST_RECORD("serve.read.staleness_s",
                      static_cast<double>(NowNs() - fitted_ns) * 1e-9);
  }
  if (!result.ok()) WPRED_COUNT_ADD("serve.predict.errors", 1);
  return result;
}

Result<std::vector<Neighbor>> PredictionService::NearestReferences(
    const Experiment& observed, size_t k) const {
  const auto start = Clock::now();
  WPRED_COUNT_ADD("serve.query.calls", 1);
  InFlightGuard admitted(in_flight_);
  WPRED_RETURN_IF_ERROR(CheckAdmission());

  SnapshotBox::ReadGuard snapshot = box_.Acquire();
  if (!snapshot) {
    return Status::Unavailable(
        "service is cold: no snapshot has been published yet");
  }
  Result<std::vector<Neighbor>> result =
      snapshot->pipeline->NearestReferences(observed, k);
  WPRED_HIST_RECORD("serve.query.latency_s", SecondsSince(start));
  return result;
}

Result<std::vector<Pipeline::WorkloadDistance>>
PredictionService::RankWorkloads(const Experiment& observed) const {
  InFlightGuard admitted(in_flight_);
  WPRED_RETURN_IF_ERROR(CheckAdmission());

  SnapshotBox::ReadGuard snapshot = box_.Acquire();
  if (!snapshot) {
    return Status::Unavailable(
        "service is cold: no snapshot has been published yet");
  }
  return snapshot->pipeline->RankWorkloads(observed);
}

// --- refit supervision ------------------------------------------------------

void PredictionService::RequestRefit(ExperimentCorpus corpus) {
  {
    MutexLock lock(queue_mu_);
    queued_corpus_ = std::move(corpus);  // newest request wins
  }
  queue_cv_.NotifyOne();
}

void PredictionService::WaitForRefits() {
  MutexLock lock(queue_mu_);
  while (queued_corpus_.has_value() || refit_running_) queue_cv_.Wait(queue_mu_);
}

void PredictionService::SupervisorLoop() {
  for (;;) {
    std::optional<ExperimentCorpus> corpus;
    {
      MutexLock lock(queue_mu_);
      while (!stopping_ && !queued_corpus_.has_value()) queue_cv_.Wait(queue_mu_);
      if (stopping_) return;
      corpus = std::move(queued_corpus_);
      queued_corpus_.reset();
      refit_running_ = true;
    }
    // The outcome (good or degraded) is recorded in the service state and
    // metrics; the supervisor itself never dies on a failed refit.
    (void)SupervisedRefit(*corpus);  // failure → degraded state, not a crash
    {
      MutexLock lock(queue_mu_);
      refit_running_ = false;
    }
    queue_cv_.NotifyAll();
  }
}

Status PredictionService::RefitNow(const ExperimentCorpus& corpus) {
  return SupervisedRefit(corpus);
}

Status PredictionService::SupervisedRefit(const ExperimentCorpus& corpus) {
  MutexLock refit_lock(refit_mu_);
  obs::Span span("serve.refit");
  // One attempt: the fit is deterministic in (config, corpus), so repeating
  // it on the same corpus cannot succeed where this one failed.
  const Status status = AttemptRefit(corpus);
  if (status.ok()) {
    WPRED_COUNT_ADD("serve.refit.success", 1);
    LeaveDegraded();
    return Status::OK();
  }
  refit_failures_.fetch_add(1, std::memory_order_relaxed);
  WPRED_COUNT_ADD("serve.refit.failures", 1);
  EnterDegraded(status);
  return status;
}

Status PredictionService::AttemptRefit(const ExperimentCorpus& corpus) {
  if (refit_fault_hook_) {
    WPRED_RETURN_IF_ERROR(refit_fault_hook_());
  }
  const bool from_published =
      published_ != nullptr &&
      SelectsAlike(published_->config, config_.pipeline);
  const FeatureSelection* selection =
      from_published ? &published_->pipeline->selection() : nullptr;
  WPRED_ASSIGN_OR_RETURN(
      SnapshotPtr snapshot,
      BuildSnapshot(config_.pipeline, corpus,
                    next_epoch_.load(std::memory_order_relaxed), selection));
  PublishSnapshot(std::move(snapshot));
  return Status::OK();
}

void PredictionService::PublishSnapshot(SnapshotPtr snapshot) {
  const auto swap_start = Clock::now();
  const FittedSnapshot& published = *snapshot;
  box_.Publish(snapshot);
  published_ = std::move(snapshot);
  next_epoch_.fetch_add(1, std::memory_order_relaxed);
  publishes_.fetch_add(1, std::memory_order_relaxed);
  published_at_ns_.store(NowNs(), std::memory_order_relaxed);
  WPRED_HIST_RECORD("serve.swap.latency_s", SecondsSince(swap_start));
  WPRED_GAUGE_SET("serve.snapshot.epoch",
                  static_cast<double>(published.epoch));
  WPRED_GAUGE_SET("serve.snapshot.reference_shards",
                  static_cast<double>(published.pipeline->reference_shards()));
  WPRED_GAUGE_SET("serve.snapshot.sketch_bins",
                  static_cast<double>(published.pipeline->sketch_bins()));
  WPRED_HIST_RECORD("serve.fit.seconds", published.fit_seconds);
  if (published.reselected) {
    WPRED_COUNT_ADD("serve.refit.reselected", 1);
  } else {
    WPRED_COUNT_ADD("serve.refit.warm", 1);
  }
  if (!config_.checkpoint_path.empty()) {
    const Status written =
        WriteCheckpoint(config_.checkpoint_path, published.config,
                        published.source_corpus,
                        published.pipeline->selection());
    if (!written.ok()) {
      // A failed checkpoint write must not fail the publish: the snapshot
      // is already serving. Surface through metrics.
      WPRED_COUNT_ADD("serve.checkpoint.write_errors", 1);
    }
  }
}

Status PredictionService::WriteCheckpointNow() const {
  if (config_.checkpoint_path.empty()) {
    return Status::FailedPrecondition("no checkpoint_path configured");
  }
  SnapshotBox::ReadGuard snapshot = box_.Acquire();
  if (!snapshot) {
    return Status::FailedPrecondition(
        "service is cold: nothing to checkpoint");
  }
  return WriteCheckpoint(config_.checkpoint_path, snapshot->config,
                         snapshot->source_corpus,
                         snapshot->pipeline->selection());
}

// --- health -----------------------------------------------------------------

void PredictionService::EnterDegraded(const Status& why) {
  MutexLock lock(state_mu_);
  if (state_ != ServingState::kDegraded) degraded_since_ = Clock::now();
  // Cold stays cold: degraded means "serving stale", which needs a snapshot.
  state_ = box_.CurrentEpoch() > 0 ? ServingState::kDegraded
                                   : ServingState::kCold;
  if (state_ != ServingState::kDegraded) degraded_since_.reset();
  degraded_reason_ = why.ToString();
  WPRED_GAUGE_SET("serve.degraded", state_ == ServingState::kDegraded ? 1 : 0);
}

void PredictionService::LeaveDegraded() {
  MutexLock lock(state_mu_);
  if (degraded_since_.has_value()) {
    degraded_total_s_ += SecondsSince(*degraded_since_);
    degraded_since_.reset();
  }
  state_ = ServingState::kServing;
  degraded_reason_.clear();
  WPRED_GAUGE_SET("serve.degraded", 0);
  WPRED_GAUGE_SET("serve.degraded_seconds_total", degraded_total_s_);
}

ServingState PredictionService::state() const {
  MutexLock lock(state_mu_);
  return state_;
}

std::string PredictionService::degraded_reason() const {
  MutexLock lock(state_mu_);
  return degraded_reason_;
}

uint64_t PredictionService::snapshot_epoch() const {
  return box_.CurrentEpoch();
}

double PredictionService::snapshot_age_s() const {
  const int64_t fitted_ns = published_at_ns_.load(std::memory_order_relaxed);
  if (fitted_ns == 0) return 0.0;
  return static_cast<double>(NowNs() - fitted_ns) * 1e-9;
}

double PredictionService::degraded_seconds_total() const {
  MutexLock lock(state_mu_);
  double total = degraded_total_s_;
  if (degraded_since_.has_value()) total += SecondsSince(*degraded_since_);
  return total;
}

}  // namespace wpred::serve
