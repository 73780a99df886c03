#ifndef WPRED_COMMON_PARALLEL_H_
#define WPRED_COMMON_PARALLEL_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <thread>
#include <vector>

#include "common/annotations.h"
#include "common/mutex.h"
#include "common/status.h"

// Deterministic parallel-for substrate for the similarity and ML hot paths.
//
// The contract every caller relies on: outputs are **bit-identical to the
// serial path at any thread count**. Three rules make that hold:
//   1. Deterministic decomposition — [0, n) is split into one contiguous
//      chunk per worker, decided purely by (n, num_threads); which thread
//      runs a chunk (and when) never changes what the chunk computes.
//   2. Slot-indexed writes — every iteration writes only state owned by its
//      index (a preallocated matrix cell, tree slot, fold slot); reductions
//      happen after the join, in index order.
//   3. Per-index RNG — stochastic iterations derive their stream with
//      `Rng::Fork(tag)` from a tag that depends only on the index, never on
//      the executing thread or on draws made by sibling iterations.
//
// `threads <= 1` (and any nested ParallelFor) runs the loop inline on the
// calling thread and touches zero thread-pool code paths.

namespace wpred {

/// Process-wide default worker count: the WPRED_THREADS environment variable
/// when set to a positive integer, otherwise std::thread::hardware_concurrency
/// (minimum 1). Cached on first call.
int DefaultNumThreads();

/// Overrides DefaultNumThreads() for the rest of the process (tests, CLI
/// flags). `n < 1` resets to the environment-derived default.
void SetDefaultNumThreads(int n);

/// Resolves a per-call thread-count knob: values < 1 mean "use the process
/// default"; the result is always >= 1.
int ResolveNumThreads(int num_threads);

/// Work-stealing telemetry. ParallelFor has one static schedule and never
/// steals, so every field is always zero; the type and GlobalStealCounters()
/// are kept only because the end-to-end benchmark (bench_e2e/) still reports
/// them as its `parallel.steals` field.
struct StealCounters {
  uint64_t tasks_stolen = 0;
};
/// Always returns {} (see StealCounters).
StealCounters GlobalStealCounters();

/// Lazily-created shared worker pool. Callers never use this directly —
/// ParallelFor/ParallelMap are the API — but tests assert on its counters to
/// prove the serial fallback stays off the pool entirely.
class ThreadPool {
 public:
  /// The shared pool, created on first use.
  static ThreadPool& Shared();
  /// True once Shared() has been called anywhere in the process. The serial
  /// fallback must never flip this.
  static bool SharedCreated();

  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Grows the worker set so at least `count` workers exist (grow-only,
  /// capped at kMaxWorkers).
  void EnsureWorkers(int count);

  /// Enqueues a task; never blocks. Tasks must not throw.
  void Submit(std::function<void()> task);

  int workers() const;
  /// Total tasks ever executed by pool workers (test observability).
  uint64_t tasks_executed() const;
  /// Total tasks ever queued via Submit (== tasks_executed once drained).
  uint64_t tasks_submitted() const;
  /// Wall seconds each worker has spent running tasks (index = worker id).
  /// Always-on: two clock reads per coarse chunk task is noise next to the
  /// chunk itself, and obs::MetricsToJson pulls these without the pool ever
  /// depending on the obs layer.
  std::vector<double> WorkerBusySeconds() const;

  static constexpr int kMaxWorkers = 64;

 private:
  ThreadPool() = default;
  void WorkerLoop(int worker_id);

  mutable Mutex mu_;
  CondVar cv_;
  std::deque<std::function<void()>> queue_ WPRED_GUARDED_BY(mu_);
  // Grown under mu_; the destructor swaps the vector out under mu_ and joins
  // outside it (joining under the lock would deadlock against WorkerLoop).
  std::vector<std::thread> threads_ WPRED_GUARDED_BY(mu_);
  bool stopping_ WPRED_GUARDED_BY(mu_) = false;
  uint64_t tasks_executed_ WPRED_GUARDED_BY(mu_) = 0;
  uint64_t tasks_submitted_ WPRED_GUARDED_BY(mu_) = 0;
  // Fixed-capacity so worker threads accumulate without locking mu_.
  std::array<std::atomic<uint64_t>, kMaxWorkers> busy_ns_ = {};
};

namespace parallel_internal {

/// True while the current thread is executing a ParallelFor chunk (worker or
/// caller). Nested ParallelFor calls detect this and run inline.
bool InParallelRegion();

/// Outcome of parsing a WPRED_THREADS-style env value. Split out (and
/// exposed) so the rejection paths are unit-testable without mutating the
/// process environment.
struct EnvThreadsParse {
  int threads = 0;       // valid parse, clamped to [1, kMaxWorkers]; 0 = none
  bool rejected = false; // value present but garbage/non-positive/overflow
};

/// Parses an env value for a thread count. `value == nullptr` (unset) yields
/// {0, false}; a valid positive integer yields it clamped to kMaxWorkers.
/// The documented contract is a strict positive integer, so the value must
/// lead with a digit: strtol leniencies — leading whitespace, '+', "0x" —
/// are rejected, as is anything with trailing garbage, zero, or a negative.
/// Rejections yield {0, true} so the caller can warn before falling back.
/// (Values above kMaxWorkers, including strtol overflow, clamp rather than
/// reject: the intent — "many threads" — is clear.)
EnvThreadsParse ParseThreadsEnv(const char* value);

/// One contiguous chunk of a statically-split range.
struct ChunkRange {
  size_t lo = 0;
  size_t hi = 0;  // exclusive
};

/// The c-th of `chunks` contiguous ranges covering [0, n): sizes differ by
/// at most one, concatenating all chunks in order yields exactly [0, n),
/// and — unlike the naive `c * n / chunks` split — the arithmetic cannot
/// overflow size_t for any n (the product c * n is never formed).
/// Requires chunks >= 1 and c < chunks.
ChunkRange ChunkBounds(size_t n, size_t chunks, size_t c);

}  // namespace parallel_internal

/// Runs fn(i) for every i in [0, n) across at most `num_threads` workers,
/// one contiguous chunk each (the calling thread always participates as
/// worker 0). Returns OK when all iterations succeed. On failure, remaining
/// iterations are drained (skipped, never cancelled mid-call) and the error
/// with the lowest iteration index among those that ran is returned:
/// chunks are contiguous ascending ranges and outcomes are scanned in chunk
/// order. With threads <= 1 this is exactly the first error in iteration
/// order.
///
/// `num_threads < 1` means DefaultNumThreads(). fn must confine its writes
/// to state owned by index i and must not throw.
Status ParallelFor(size_t n, int num_threads,
                   const std::function<Status(size_t)>& fn);

/// ParallelFor with the process-default thread count.
Status ParallelFor(size_t n, const std::function<Status(size_t)>& fn);

/// Maps fn : index -> Result<T> over [0, n) into a preallocated vector with
/// slot-indexed writes (ParallelFor's determinism and error semantics).
template <typename T, typename Fn>
Result<std::vector<T>> ParallelMap(size_t n, int num_threads, Fn&& fn) {
  std::vector<T> out(n);
  Status st = ParallelFor(n, num_threads, [&](size_t i) -> Status {
    WPRED_ASSIGN_OR_RETURN(out[i], fn(i));
    return Status::OK();
  });
  if (!st.ok()) return st;
  return out;
}

}  // namespace wpred

#endif  // WPRED_COMMON_PARALLEL_H_
