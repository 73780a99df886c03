// Heap-allocation guard for the simulator's event loop. This file builds into
// its own test binary (wpred_alloc_tests): it replaces the global allocation
// functions with counting ones, and keeping that replacement out of
// wpred_tests leaves the sanitizer's own new/delete checks (mismatched
// new[]/delete, wrong sized delete) on for the rest of the suite.

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include <gtest/gtest.h>

#include "obs/metrics.h"
#include "sim/engine.h"
#include "sim/hardware.h"
#include "sim/workload_spec.h"

namespace wpred {

// Every global operator new in this binary bumps this counter (see the
// replacement at the end of the file).
std::atomic<uint64_t> g_heap_allocations{0};

namespace {

uint64_t HeapAllocations() {
  return g_heap_allocations.load(std::memory_order_relaxed);
}

uint64_t SimEventsProcessed() {
  return obs::MetricsRegistry::Global()
      .GetCounter("sim.events_processed")
      .value();
}

// The event loop itself allocates nothing: events are POD records in one
// queue, per-transaction state lives in a per-terminal slot and per-type
// stats in a vector. What remains is per-run set-up (the sample matrix, the
// queue's growth, the plan synthesis, the returned experiment).
TEST(EngineTest, EventLoopDoesNotAllocate) {
  RunRequest request;
  request.workload = MakeTwitter();
  request.sku = MakeCpuSku(8);
  request.terminals = 32;
  request.config.duration_s = 20.0;
  request.config.sample_period_s = 0.5;
  request.config.seed = 42;
  const bool metrics_were_enabled = obs::MetricsEnabled();
  obs::SetMetricsEnabled(true);
  const uint64_t events_before = SimEventsProcessed();
  const uint64_t allocations_before = HeapAllocations();
  const auto result = RunExperiment(request);
  const uint64_t allocations = HeapAllocations() - allocations_before;
  const uint64_t events = SimEventsProcessed() - events_before;
  obs::SetMetricsEnabled(metrics_were_enabled);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_GT(events, 10000u);
  EXPECT_LT(allocations * 100, events)
      << allocations << " allocations for " << events << " events";
}

}  // namespace
}  // namespace wpred

// Counting replacement of the global allocation functions for this binary.
// Every unaligned new and delete is replaced, so each pair meets in malloc
// and free (a sanitizer runtime that supplies the rest tags its own blocks
// and would report a half-replaced set as mismatched); the aligned forms stay
// the runtime's. GCC cannot see the pairing inside a replacement and warns,
// hence the pragma.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
namespace {
void* CountedMalloc(std::size_t size) noexcept {
  wpred::g_heap_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}
void* CountedNew(std::size_t size) {
  if (void* p = CountedMalloc(size)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t size) { return CountedNew(size); }
void* operator new[](std::size_t size) { return CountedNew(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return CountedMalloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return CountedMalloc(size);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif
