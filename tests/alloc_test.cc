// Heap-allocation guards for the simulator's event loop, two model kernels
// and the streaming window's Push. This file builds into its own test binary (wpred_alloc_tests): it
// replaces the global allocation functions with counting ones, and keeping
// that replacement out of wpred_tests leaves the sanitizer's own new/delete
// checks (mismatched new[]/delete, wrong sized delete) on for the rest of
// the suite.

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "ml/logistic_regression.h"
#include "ml/svr.h"
#include "obs/metrics.h"
#include "sim/engine.h"
#include "sim/hardware.h"
#include "sim/workload_spec.h"
#include "stream/window.h"
#include "telemetry/feature_catalog.h"

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

// LogisticRegression::Fit allocates its score, error and gradient buffers
// once per fit, so a longer run allocates nothing more.
TEST(LogisticRegressionTest, FitAllocationsDoNotGrowWithIterations) {
  Rng rng(5);
  Matrix x(200, 29);
  std::vector<int> y(200);
  for (size_t r = 0; r < x.rows(); ++r) {
    y[r] = static_cast<int>(r % 2);
    for (size_t j = 0; j < x.cols(); ++j) {
      x(r, j) = rng.Gaussian(j % 3 == 0 ? y[r] : 0.0, 1.0);
    }
  }
  const auto fit_allocations = [&](int max_iter) {
    LogisticRegression model(1e-3, max_iter);
    const uint64_t before = HeapAllocations();
    const Status status = model.Fit(x, y);
    const uint64_t allocations = HeapAllocations() - before;
    EXPECT_TRUE(status.ok()) << status.ToString();
    return allocations;
  };
  EXPECT_EQ(fit_allocations(10), fit_allocations(300));
}

// SvmRegressor::Predict reads the support vectors in place: a prediction
// allocates the same at 10 support vectors as at 100.
TEST(SvmRegressorTest, PredictAllocationsDoNotGrowWithSupportVectors) {
  const auto predict_allocations = [](size_t n) {
    Rng rng(n);
    Matrix x(n, 3);
    Vector y(n);
    for (size_t r = 0; r < n; ++r) {
      for (size_t j = 0; j < x.cols(); ++j) x(r, j) = rng.Uniform(-1.0, 1.0);
      y[r] = x(r, 0) - 2.0 * x(r, 1) + rng.Gaussian(0.0, 0.5);
    }
    SvmRegressor model;
    EXPECT_TRUE(model.Fit(x, y).ok());
    EXPECT_GT(model.NumSupportVectors(), n / 2) << n << " rows";
    const Vector row = {0.1, -0.2, 0.3};
    const uint64_t before = HeapAllocations();
    const Result<double> prediction = model.Predict(row);
    const uint64_t allocations = HeapAllocations() - before;
    EXPECT_TRUE(prediction.ok());
    return allocations;
  };
  EXPECT_EQ(predict_allocations(10), predict_allocations(100));
}

// SlidingWindow::Push overwrites one ring row in place, through the fill and
// past two wraps.
TEST(SlidingWindowTest, PushDoesNotAllocate) {
  NormalizationContext ctx;
  ctx.min.assign(kNumFeatures, 0.0);
  ctx.max.assign(kNumFeatures, 1.0);
  Result<SlidingWindow> window = SlidingWindow::Create(16, ctx);
  ASSERT_TRUE(window.ok()) << window.status().ToString();
  Vector row(kNumResourceFeatures);
  Rng rng(9);
  const uint64_t before = HeapAllocations();
  for (int i = 0; i < 40; ++i) {
    for (double& v : row) v = rng.Uniform(0.0, 1.0);
    if (!window->Push(row).ok()) ADD_FAILURE() << "push " << i;
  }
  EXPECT_EQ(HeapAllocations() - before, 0u);
  EXPECT_EQ(window->samples_pushed(), 40u);
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
