#include "common/parallel.h"

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>

#include "common/check.h"

namespace wpred {

namespace parallel_internal {

EnvThreadsParse ParseThreadsEnv(const char* value) {
  if (value == nullptr) return {0, false};
  // Strict positive-integer contract: the value must lead with a digit.
  // strtol alone would accept " 8", "+8", and parse "0x8" as 0-then-junk —
  // all inconsistent with the documented format.
  if (std::isdigit(static_cast<unsigned char>(value[0])) == 0) {
    return {0, true};
  }
  errno = 0;
  char* end = nullptr;
  const long v = std::strtol(value, &end, 10);
  if (end == value || *end != '\0') return {0, true};  // garbage / trailing junk
  if (errno == ERANGE || v > ThreadPool::kMaxWorkers) {
    // Overflow or absurdly large: clamp rather than reject — the intent
    // ("many threads") is clear, the magnitude is not actionable.
    return {ThreadPool::kMaxWorkers, false};
  }
  if (v < 1) return {0, true};  // zero / negative
  return {static_cast<int>(v), false};
}

ChunkRange ChunkBounds(size_t n, size_t chunks, size_t c) {
  WPRED_DCHECK(chunks >= 1);
  WPRED_DCHECK(c < chunks);
  // base*c + min(c, extra) never overflows: base*chunks <= n and c < chunks,
  // so base*c < n; min(c, extra) <= extra < chunks <= n (for n >= chunks,
  // the only case where extra > 0 matters). The naive c*n/chunks forms c*n,
  // which wraps for n past SIZE_MAX / chunks and silently drops iterations.
  const size_t base = n / chunks;
  const size_t extra = n % chunks;
  const size_t lo = base * c + std::min(c, extra);
  return {lo, lo + base + (c < extra ? 1 : 0)};
}

}  // namespace parallel_internal

namespace {

std::atomic<bool> g_shared_created{false};
std::atomic<int> g_default_override{0};   // 0 = no override

thread_local int tl_parallel_depth = 0;

int HardwareDefaultThreads() {
  const unsigned hc = std::thread::hardware_concurrency();
  return hc == 0 ? 1 : static_cast<int>(
                           std::min<unsigned>(hc, ThreadPool::kMaxWorkers));
}

int EnvDefaultThreads() {
  const char* env = std::getenv("WPRED_THREADS");
  const auto parsed = parallel_internal::ParseThreadsEnv(env);
  if (parsed.rejected) {
    std::fprintf(stderr,
                 "wpred: ignoring invalid WPRED_THREADS=\"%s\" (want a "
                 "positive integer); using %d hardware threads\n",
                 env, HardwareDefaultThreads());
  }
  if (parsed.threads >= 1) return parsed.threads;
  return HardwareDefaultThreads();
}

}  // namespace

int DefaultNumThreads() {
  const int override = g_default_override.load(std::memory_order_relaxed);
  if (override >= 1) return override;
  static const int env_default = EnvDefaultThreads();
  return env_default;
}

void SetDefaultNumThreads(int n) {
  g_default_override.store(
      n < 1 ? 0 : std::min(n, ThreadPool::kMaxWorkers),
      std::memory_order_relaxed);
}

int ResolveNumThreads(int num_threads) {
  if (num_threads < 1) return DefaultNumThreads();
  return std::min(num_threads, ThreadPool::kMaxWorkers);
}

StealCounters GlobalStealCounters() { return {}; }

ThreadPool& ThreadPool::Shared() {
  static ThreadPool* pool = [] {
    g_shared_created.store(true, std::memory_order_release);
    // Leaked on purpose: worker threads may still be parked in WorkerLoop at
    // static-destruction time; joining there can deadlock with atexit order.
    return new ThreadPool();
  }();
  return *pool;
}

bool ThreadPool::SharedCreated() {
  return g_shared_created.load(std::memory_order_acquire);
}

ThreadPool::~ThreadPool() {
  std::vector<std::thread> workers;
  {
    MutexLock lock(mu_);
    stopping_ = true;
    // Swap the workers out so the join below happens outside the lock —
    // joining under mu_ would deadlock against WorkerLoop's reacquire.
    workers.swap(threads_);
  }
  cv_.NotifyAll();
  for (std::thread& t : workers) t.join();
}

void ThreadPool::EnsureWorkers(int count) {
  count = std::min(count, kMaxWorkers);
  MutexLock lock(mu_);
  while (static_cast<int>(threads_.size()) < count) {
    const int worker_id = static_cast<int>(threads_.size());
    threads_.emplace_back([this, worker_id] { WorkerLoop(worker_id); });
  }
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    MutexLock lock(mu_);
    queue_.push_back(std::move(task));
    ++tasks_submitted_;
  }
  cv_.NotifyOne();
}

int ThreadPool::workers() const {
  MutexLock lock(mu_);
  return static_cast<int>(threads_.size());
}

uint64_t ThreadPool::tasks_executed() const {
  MutexLock lock(mu_);
  return tasks_executed_;
}

uint64_t ThreadPool::tasks_submitted() const {
  MutexLock lock(mu_);
  return tasks_submitted_;
}

std::vector<double> ThreadPool::WorkerBusySeconds() const {
  std::vector<double> out(static_cast<size_t>(workers()));
  for (size_t i = 0; i < out.size(); ++i) {
    out[i] = static_cast<double>(busy_ns_[i].load(std::memory_order_relaxed)) *
             1e-9;
  }
  return out;
}

void ThreadPool::WorkerLoop(int worker_id) {
  for (;;) {
    std::function<void()> task;
    {
      MutexLock lock(mu_);
      // Spelled as a loop, not a predicate lambda: Clang's thread-safety
      // analysis treats a lambda body as a separate unannotated function
      // and would warn on every guarded field the predicate reads.
      while (!stopping_ && queue_.empty()) cv_.Wait(mu_);
      if (stopping_ && queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop_front();
      ++tasks_executed_;
    }
    const auto t0 = std::chrono::steady_clock::now();
    task();
    busy_ns_[static_cast<size_t>(worker_id)].fetch_add(
        static_cast<uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - t0)
                .count()),
        std::memory_order_relaxed);
  }
}

namespace parallel_internal {

bool InParallelRegion() { return tl_parallel_depth > 0; }

}  // namespace parallel_internal

namespace {

struct ChunkOutcome {
  Status status;
  size_t error_index = 0;
  bool failed = false;
};

// Iterates one contiguous chunk in index order, bailing out (draining) as
// soon as any chunk has recorded a failure. The first iteration always runs
// even if a sibling already failed: that pins the reported error for a
// failure at a chunk boundary (index 0 in particular) regardless of how the
// chunks were scheduled.
void RunChunk(size_t lo, size_t hi, const std::function<Status(size_t)>& fn,
              std::atomic<bool>& abort, ChunkOutcome& outcome) {
  ++tl_parallel_depth;
  for (size_t i = lo; i < hi; ++i) {
    if (i != lo && abort.load(std::memory_order_relaxed)) break;
    Status st = fn(i);
    if (!st.ok()) {
      outcome.status = std::move(st);
      outcome.error_index = i;
      outcome.failed = true;
      abort.store(true, std::memory_order_relaxed);
      break;
    }
  }
  --tl_parallel_depth;
}

Status SerialFor(size_t n, const std::function<Status(size_t)>& fn) {
  ++tl_parallel_depth;
  Status result = Status::OK();
  for (size_t i = 0; i < n; ++i) {
    result = fn(i);
    if (!result.ok()) break;
  }
  --tl_parallel_depth;
  return result;
}

// Lowest-index error wins: scanning chunk outcomes in order yields the
// smallest failed index because chunks are contiguous and ascending.
Status FirstFailure(std::vector<ChunkOutcome>& outcomes) {
  for (ChunkOutcome& outcome : outcomes) {
    if (outcome.failed) return std::move(outcome.status);
  }
  return Status::OK();
}

Status StaticFor(size_t n, size_t chunks,
                 const std::function<Status(size_t)>& fn) {
  ThreadPool& pool = ThreadPool::Shared();
  pool.EnsureWorkers(static_cast<int>(chunks) - 1);

  std::vector<ChunkOutcome> outcomes(chunks);
  std::atomic<bool> abort{false};
  std::mutex done_mu;
  std::condition_variable done_cv;
  size_t pending = chunks - 1;

  for (size_t c = 1; c < chunks; ++c) {
    const auto range = parallel_internal::ChunkBounds(n, chunks, c);
    pool.Submit([&, range, c] {
      RunChunk(range.lo, range.hi, fn, abort, outcomes[c]);
      // Notify while holding the lock: done_cv lives on the caller's stack,
      // and the caller may return (destroying it) the moment it observes
      // pending == 0 — which it cannot do before this unlock completes.
      std::lock_guard<std::mutex> lock(done_mu);
      --pending;
      done_cv.notify_one();
    });
  }
  // The calling thread owns chunk 0 rather than idling on the join.
  const auto first = parallel_internal::ChunkBounds(n, chunks, 0);
  RunChunk(first.lo, first.hi, fn, abort, outcomes[0]);
  {
    std::unique_lock<std::mutex> lock(done_mu);
    done_cv.wait(lock, [&] { return pending == 0; });
  }
  return FirstFailure(outcomes);
}

}  // namespace

Status ParallelFor(size_t n, int num_threads,
                   const std::function<Status(size_t)>& fn) {
  if (n == 0) return Status::OK();
  const size_t threads = static_cast<size_t>(ResolveNumThreads(num_threads));
  const size_t chunks = std::min(threads, n);
  // Serial fallback: one thread, or already inside a parallel region (nested
  // parallelism would oversubscribe and gains nothing). Touches no
  // thread-pool code whatsoever.
  if (chunks <= 1 || parallel_internal::InParallelRegion()) {
    return SerialFor(n, fn);
  }
  return StaticFor(n, chunks, fn);
}

Status ParallelFor(size_t n, const std::function<Status(size_t)>& fn) {
  return ParallelFor(n, /*num_threads=*/0, fn);
}

}  // namespace wpred
