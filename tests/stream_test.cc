// Incremental ingestion (src/stream/, DESIGN.md §13). The load-bearing
// claim everywhere is EQUIVALENCE: the incremental paths — sliding-window
// representations, online change-point detection, corpus/envelope appends,
// warm-started refits — must reproduce what a from-scratch batch rebuild
// would compute, bit-identically where documented and within a stated
// tolerance otherwise, at any thread count and schedule. The Stream* suites
// also run under TSan in CI.

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/workbench.h"
#include "linalg/stats.h"
#include "ml/lasso.h"
#include "ml/random_forest.h"
#include "serve/service.h"
#include "serve/stream_refit.h"
#include "sim/hardware.h"
#include "similarity/bcpd.h"
#include "similarity/query.h"
#include "similarity/representation.h"
#include "stream/ingest.h"
#include "stream/window.h"
#include "telemetry/feature_catalog.h"

namespace wpred {
namespace {

NormalizationContext UnitContext() {
  NormalizationContext ctx;
  ctx.min.assign(kNumFeatures, 0.0);
  ctx.max.assign(kNumFeatures, 1.0);
  return ctx;
}

Vector RandomSample(Rng& rng) {
  Vector row(kNumResourceFeatures);
  for (double& v : row) v = rng.Uniform(0.0, 1.0);
  return row;
}

/// Experiment holding exactly the window's rows — what a batch rebuild sees.
Experiment WindowAsExperiment(const SlidingWindow& window) {
  Experiment e;
  e.resource.values = window.Rows();
  return e;
}

// --- sliding window: incremental == batch -----------------------------------

TEST(StreamWindowTest, MtsMatchesBatchBuildAtEveryFillLevel) {
  const std::vector<size_t> features = {0, 2, 5};
  const NormalizationContext ctx = UnitContext();
  Result<SlidingWindow> window = SlidingWindow::Create(16, ctx);
  ASSERT_TRUE(window.ok()) << window.status().ToString();
  Rng rng(41);
  // 40 pushes cross the partial-fill, exactly-full, and many-evictions
  // states; equivalence must hold at every one of them.
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(window->Push(RandomSample(rng)).ok());
    const Result<Matrix> incremental = window->Mts(features);
    ASSERT_TRUE(incremental.ok()) << incremental.status().ToString();
    const Result<Matrix> batch =
        BuildMts(WindowAsExperiment(*window), features, ctx);
    ASSERT_TRUE(batch.ok()) << batch.status().ToString();
    EXPECT_EQ(*incremental, *batch) << "push " << i;
  }
}

TEST(StreamWindowTest, HistFpMatchesBatchBuildBitIdentically) {
  const std::vector<size_t> features = {0, 1, 3, 6};
  const NormalizationContext ctx = UnitContext();
  Result<SlidingWindow> window = SlidingWindow::Create(12, ctx, /*hist_bins=*/10);
  ASSERT_TRUE(window.ok()) << window.status().ToString();
  Rng rng(42);
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(window->Push(RandomSample(rng)).ok());
    const Result<Matrix> incremental = window->HistFp(features);
    ASSERT_TRUE(incremental.ok()) << incremental.status().ToString();
    const Result<Matrix> batch =
        BuildHistFp(WindowAsExperiment(*window), features, ctx);
    ASSERT_TRUE(batch.ok()) << batch.status().ToString();
    // operator== is exact double equality: the histogram contract is
    // bit-identity, not closeness.
    EXPECT_EQ(*incremental, *batch) << "push " << i;
  }
}

TEST(StreamWindowTest, UpperEdgeSampleLandsInLastBin) {
  // A value exactly at the feature max normalises to 1.0; floor(1.0 · bins)
  // is the out-of-range bin. The shared HistFpBin clamp must put it in the
  // last bin on both the batch and incremental paths.
  EXPECT_EQ(representation_internal::HistFpBin(1.0, 10), 9);
  EXPECT_EQ(representation_internal::HistFpBin(0.0, 10), 0);
  EXPECT_EQ(representation_internal::HistFpBin(-0.5, 10), 0);
  EXPECT_EQ(representation_internal::HistFpBin(1.5, 10), 9);
  // The lower edge must mirror the upper-edge pin for values arbitrarily
  // far out of frame: v·bins beyond int's range would be an undefined
  // static_cast, so both clamps act in double space before the conversion.
  // (The similarity sketches feed out-of-frame values here after appends.)
  EXPECT_EQ(representation_internal::HistFpBin(-1e18, 10), 0);
  EXPECT_EQ(representation_internal::HistFpBin(1e18, 10), 9);
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(representation_internal::HistFpBin(-inf, 10), 0);
  EXPECT_EQ(representation_internal::HistFpBin(inf, 10), 9);
  EXPECT_EQ(representation_internal::HistFpBin(
                std::numeric_limits<double>::quiet_NaN(), 10),
            0);
  // One ulp below 1.0 stays in the last bin, one ulp above 0.0 in the
  // first: the clamp never moves interior values.
  EXPECT_EQ(representation_internal::HistFpBin(
                std::nextafter(1.0, 0.0), 10),
            9);
  EXPECT_EQ(representation_internal::HistFpBin(
                std::nextafter(0.0, 1.0), 10),
            0);

  const std::vector<size_t> features = {0};
  const NormalizationContext ctx = UnitContext();
  Result<SlidingWindow> window = SlidingWindow::Create(4, ctx);
  ASSERT_TRUE(window.ok());
  for (int i = 0; i < 4; ++i) {
    Vector row(kNumResourceFeatures, 1.0);  // every value sits on the max
    ASSERT_TRUE(window->Push(row).ok());
  }
  const Result<Matrix> incremental = window->HistFp(features);
  ASSERT_TRUE(incremental.ok());
  const Result<Matrix> batch =
      BuildHistFp(WindowAsExperiment(*window), features, ctx);
  ASSERT_TRUE(batch.ok());
  EXPECT_EQ(*incremental, *batch);
  // All mass in the final bin; every earlier cumulative bin is empty.
  for (int b = 0; b < 9; ++b) EXPECT_EQ((*incremental)(b, 0), 0.0) << b;
  EXPECT_DOUBLE_EQ((*incremental)(9, 0), 1.0);
}

TEST(StreamWindowTest, RunningMomentsTrackBatchRecomputeThroughEvictions) {
  const NormalizationContext ctx = UnitContext();
  Result<SlidingWindow> window = SlidingWindow::Create(32, ctx);
  ASSERT_TRUE(window.ok());
  Rng rng(43);
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(window->Push(RandomSample(rng)).ok());
  }
  const Matrix rows = window->Rows();
  for (size_t f = 0; f < kNumResourceFeatures; ++f) {
    const Vector column = rows.Col(f);
    const RunningMoments& moments = window->moments(f);
    EXPECT_EQ(moments.count(), column.size());
    // Downdated moments are the documented approximate corner of the
    // window: ~1e-9 relative against a fresh recompute.
    EXPECT_NEAR(moments.mean(), Mean(column), 1e-9 * std::abs(Mean(column)) + 1e-12);
    EXPECT_NEAR(moments.variance(), Variance(column), 1e-9);
  }
}

TEST(StreamWindowTest, RunningMomentsPopInvertsPush) {
  RunningMoments moments;
  moments.Push(2.0);
  moments.Push(4.0);
  moments.Push(9.0);
  moments.Pop(4.0);
  EXPECT_EQ(moments.count(), 2u);
  EXPECT_NEAR(moments.mean(), 5.5, 1e-12);
  EXPECT_NEAR(moments.variance(), 12.25, 1e-9);
  moments.Pop(2.0);
  moments.Pop(9.0);
  EXPECT_EQ(moments.count(), 0u);
  EXPECT_DOUBLE_EQ(moments.mean(), 0.0);
  EXPECT_DOUBLE_EQ(moments.variance(), 0.0);
}

TEST(StreamWindowTest, RejectsBadInputs) {
  EXPECT_FALSE(SlidingWindow::Create(1, UnitContext()).ok());
  EXPECT_FALSE(SlidingWindow::Create(8, UnitContext(), /*hist_bins=*/1).ok());
  EXPECT_FALSE(SlidingWindow::Create(8, NormalizationContext{}).ok());

  SlidingWindow unusable;  // default-constructed placeholder
  EXPECT_FALSE(unusable.Push(Vector(kNumResourceFeatures, 0.5)).ok());

  Result<SlidingWindow> window = SlidingWindow::Create(8, UnitContext());
  ASSERT_TRUE(window.ok());
  EXPECT_FALSE(window->Push(Vector(3, 0.5)).ok());
  Vector bad(kNumResourceFeatures, 0.5);
  bad[2] = std::numeric_limits<double>::quiet_NaN();
  EXPECT_FALSE(window->Push(bad).ok());
  EXPECT_FALSE(window->Mts({kNumResourceFeatures}).ok());  // plan feature
  EXPECT_FALSE(window->HistFp({}).ok());
  EXPECT_FALSE(window->Mts({0}).ok());  // still empty
}

// --- online BCPD: online == batch, boundary segments ------------------------

TEST(StreamBcpdTest, OnlineDetectorMatchesBatchDetection) {
  Rng rng(7);
  Vector series;
  for (int i = 0; i < 70; ++i) series.push_back(rng.Gaussian(0.2, 0.03));
  for (int i = 0; i < 70; ++i) series.push_back(rng.Gaussian(0.8, 0.03));
  for (int i = 0; i < 70; ++i) series.push_back(rng.Gaussian(0.4, 0.03));

  const Result<std::vector<size_t>> batch = DetectChangePoints(series);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  ASSERT_GE(batch->size(), 2u);

  Result<OnlineBcpdDetector> detector = OnlineBcpdDetector::Create();
  ASSERT_TRUE(detector.ok());
  std::vector<size_t> online;
  for (double x : series) {
    const std::optional<size_t> cp = detector->Observe(x);
    if (cp.has_value() && *cp < series.size()) online.push_back(*cp);
  }
  std::sort(online.begin(), online.end());
  online.erase(std::unique(online.begin(), online.end()), online.end());
  EXPECT_EQ(online, *batch);
  EXPECT_EQ(detector->samples_seen(), series.size());
}

TEST(StreamBcpdTest, ResetRestartsTheDetectorExactly) {
  Rng rng(8);
  Vector series;
  for (int i = 0; i < 40; ++i) series.push_back(rng.Gaussian(0.1, 0.02));
  for (int i = 0; i < 40; ++i) series.push_back(rng.Gaussian(0.9, 0.02));

  Result<OnlineBcpdDetector> detector = OnlineBcpdDetector::Create();
  ASSERT_TRUE(detector.ok());
  std::vector<size_t> first;
  for (double x : series) {
    if (const auto cp = detector->Observe(x)) first.push_back(*cp);
  }
  detector->Reset();
  EXPECT_EQ(detector->samples_seen(), 0u);
  std::vector<size_t> second;
  for (double x : series) {
    if (const auto cp = detector->Observe(x)) second.push_back(*cp);
  }
  EXPECT_EQ(first, second);
}

TEST(StreamBcpdTest, BoundaryChangePointsNeverYieldEmptySegments) {
  // A change point at the final sample (cp == n-1) must leave a one-sample
  // trailing segment; cp == n (regime starts after the observed series) and
  // cp == 0 are not interior splits and produce no extra segment.
  const auto at_last = SegmentsFromChangePoints(10, {9});
  ASSERT_EQ(at_last.size(), 2u);
  EXPECT_EQ(at_last[1].begin, 9u);
  EXPECT_EQ(at_last[1].end, 10u);

  const auto past_end = SegmentsFromChangePoints(10, {10});
  ASSERT_EQ(past_end.size(), 1u);
  EXPECT_EQ(past_end[0].begin, 0u);
  EXPECT_EQ(past_end[0].end, 10u);

  const auto at_zero = SegmentsFromChangePoints(10, {0});
  ASSERT_EQ(at_zero.size(), 1u);

  const auto single = SegmentsFromChangePoints(1, {});
  ASSERT_EQ(single.size(), 1u);
  EXPECT_EQ(single[0].begin, 0u);
  EXPECT_EQ(single[0].end, 1u);
}

TEST(StreamBcpdTest, DetectedSegmentsAlwaysPartitionTheSeries) {
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    Rng rng(seed);
    Vector series;
    for (int i = 0; i < 50; ++i) series.push_back(rng.Gaussian(0.2, 0.05));
    for (int i = 0; i < 50; ++i) series.push_back(rng.Gaussian(0.7, 0.05));
    const Result<std::vector<size_t>> cps = DetectChangePoints(series);
    ASSERT_TRUE(cps.ok());
    for (size_t cp : *cps) {
      EXPECT_GT(cp, 0u);
      EXPECT_LT(cp, series.size());
    }
    const auto segments = SegmentsFromChangePoints(series.size(), *cps);
    ASSERT_FALSE(segments.empty());
    size_t cursor = 0;
    for (const Segment& segment : segments) {
      EXPECT_EQ(segment.begin, cursor);
      EXPECT_LT(segment.begin, segment.end) << "empty segment";
      cursor = segment.end;
    }
    EXPECT_EQ(cursor, series.size());
  }
}

TEST(StreamBcpdTest, SingleSampleSeriesDetectsNothing) {
  const Result<std::vector<size_t>> cps = DetectChangePoints({0.5});
  ASSERT_TRUE(cps.ok());
  EXPECT_TRUE(cps->empty());
}

// --- incremental corpus/envelope appends ------------------------------------

Matrix RandomSeries(Rng& rng, size_t rows, size_t cols) {
  Matrix m(rows, cols);
  for (double& v : m.data()) v = rng.Uniform(0.0, 1.0);
  return m;
}

std::vector<Matrix> RandomTraces(uint64_t seed, size_t n, size_t rows,
                                 size_t cols) {
  Rng rng(seed);
  std::vector<Matrix> traces;
  traces.reserve(n);
  for (size_t i = 0; i < n; ++i) traces.push_back(RandomSeries(rng, rows, cols));
  return traces;
}

TEST(StreamAppendTest, AppendedEngineMatchesFromScratchBuild) {
  const std::vector<Matrix> all = RandomTraces(21, 14, 10, 3);
  Rng rng(22);
  const Matrix query = RandomSeries(rng, 10, 3);
  for (const std::string& measure :
       {std::string("L2,1-Norm"), std::string("Dependent-DTW"),
        std::string("Independent-DTW")}) {
    for (const size_t shard_traces : {0ul, 4ul}) {
      for (const int threads : {1, 4}) {
        for (const size_t split : {1ul, 9ul, 13ul}) {
          std::vector<Matrix> head(all.begin(), all.begin() + split);
          std::vector<Matrix> tail(all.begin() + split, all.end());

          Result<SimilarityQueryEngine> grown = SimilarityQueryEngine::Build(
              head, measure, /*window=*/3, threads, shard_traces);
          ASSERT_TRUE(grown.ok()) << grown.status().ToString();
          // Query first so the envelope cache is warm — the append must
          // extend the published sets, not rebuild them.
          ASSERT_TRUE(grown->RankNeighbors(query, 3).ok());
          ASSERT_TRUE(grown->AppendTraces(tail, threads).ok());

          const Result<SimilarityQueryEngine> scratch =
              SimilarityQueryEngine::Build(all, measure, /*window=*/3,
                                           threads, shard_traces);
          ASSERT_TRUE(scratch.ok());

          const Result<Vector> grown_d = grown->Distances(query);
          const Result<Vector> scratch_d = scratch->Distances(query);
          ASSERT_TRUE(grown_d.ok());
          ASSERT_TRUE(scratch_d.ok());
          EXPECT_EQ(*grown_d, *scratch_d)
              << measure << " shards=" << shard_traces
              << " threads=" << threads << " split=" << split;

          for (const size_t k : {1ul, 5ul, 14ul}) {
            const auto grown_k = grown->RankNeighbors(query, k);
            const auto scratch_k = scratch->RankNeighbors(query, k);
            ASSERT_TRUE(grown_k.ok());
            ASSERT_TRUE(scratch_k.ok());
            EXPECT_EQ(*grown_k, *scratch_k)
                << measure << " k=" << k << " split=" << split;
          }
        }
      }
    }
  }
}

TEST(StreamAppendTest, AppendIsScheduleAndThreadCountInvariant) {
  const std::vector<Matrix> all = RandomTraces(31, 12, 8, 2);
  Rng rng(32);
  const Matrix query = RandomSeries(rng, 8, 2);
  std::optional<Vector> reference;
  for (const int threads : {1, 2, 8}) {
    Result<SimilarityQueryEngine> engine = SimilarityQueryEngine::Build(
        {all.begin(), all.begin() + 5}, "Dependent-DTW", /*window=*/2, threads,
        /*shard_traces=*/3);
    ASSERT_TRUE(engine.ok());
    ASSERT_TRUE(
        engine->AppendTraces({all.begin() + 5, all.end()}, threads).ok());
    const Result<Vector> distances = engine->Distances(query, threads);
    ASSERT_TRUE(distances.ok());
    if (!reference.has_value()) {
      reference = *distances;
    } else {
      EXPECT_EQ(*distances, *reference) << "threads=" << threads;
    }
  }
}

TEST(StreamAppendTest, AppendValidatesTraces) {
  Result<SimilarityQueryEngine> engine =
      SimilarityQueryEngine::Build(RandomTraces(33, 4, 6, 3), "L2,1-Norm");
  ASSERT_TRUE(engine.ok());
  EXPECT_TRUE(engine->AppendTraces({}).ok());  // empty append is a no-op
  EXPECT_EQ(engine->corpus().size(), 4u);

  std::vector<Matrix> wrong_arity;
  wrong_arity.push_back(Matrix(6, 2));
  EXPECT_FALSE(engine->AppendTraces(std::move(wrong_arity)).ok());

  std::vector<Matrix> empty_trace;
  empty_trace.push_back(Matrix());
  EXPECT_FALSE(engine->AppendTraces(std::move(empty_trace)).ok());

  std::vector<Matrix> non_finite;
  non_finite.push_back(Matrix(6, 3));
  non_finite.back()(2, 1) = std::numeric_limits<double>::infinity();
  EXPECT_FALSE(engine->AppendTraces(std::move(non_finite)).ok());
  EXPECT_EQ(engine->corpus().size(), 4u);  // failed appends change nothing
}

// --- warm-started refits ----------------------------------------------------

TEST(StreamWarmRefitTest, WarmLassoAgreesWithColdWithinToleranceAndSavesWork) {
  Rng rng(51);
  const size_t n = 120, p = 6;
  Matrix x(n, p);
  for (double& v : x.data()) v = rng.Gaussian(0.0, 1.0);
  const Vector w = {1.5, -2.0, 0.0, 0.5, 0.0, 3.0};
  Vector y(n, 0.0);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < p; ++j) y[i] += x(i, j) * w[j];
    y[i] += rng.Gaussian(0.0, 0.01);
  }
  // Second corpus: the same problem slightly perturbed, as a slid window
  // would produce.
  Matrix x2 = x;
  Vector y2 = y;
  for (double& v : y2) v += rng.Gaussian(0.0, 0.005);

  constexpr double kTol = 1e-8;
  ElasticNet cold(0.01, 1.0, /*max_iter=*/1000, kTol);
  ASSERT_TRUE(cold.Fit(x2, y2).ok());
  const int cold_sweeps = cold.last_sweeps();

  ElasticNet warm(0.01, 1.0, /*max_iter=*/1000, kTol);
  warm.set_warm_start(true);
  ASSERT_TRUE(warm.Fit(x, y).ok());
  ASSERT_TRUE(warm.Fit(x2, y2).ok());
  const int warm_sweeps = warm.last_sweeps();

  ASSERT_EQ(warm.coefficients().size(), cold.coefficients().size());
  for (size_t j = 0; j < p; ++j) {
    // Documented warm-start tolerance: both starts descend to `tol` per
    // coordinate, so solutions agree to within a small multiple of it.
    EXPECT_NEAR(warm.coefficients()[j], cold.coefficients()[j], 100 * kTol)
        << j;
  }
  // The whole point of resuming: strictly fewer sweeps than a cold start.
  EXPECT_LT(warm_sweeps, cold_sweeps);
}

TEST(StreamWarmRefitTest, GrownForestIsBitIdenticalToLargerColdFit) {
  Rng rng(52);
  const size_t n = 80, p = 4;
  Matrix x(n, p);
  for (double& v : x.data()) v = rng.Uniform(0.0, 1.0);
  Vector y(n);
  for (size_t i = 0; i < n; ++i) y[i] = x(i, 0) * 2.0 + x(i, 2) + 0.1 * x(i, 3);

  for (const int threads : {1, 4}) {
    ForestParams grown_params;
    grown_params.num_trees = 8;
    grown_params.max_depth = 6;
    grown_params.num_threads = threads;
    RandomForestRegressor grown(grown_params);
    ASSERT_TRUE(grown.Fit(x, y).ok());
    ASSERT_TRUE(grown.GrowTrees(x, y, 5).ok());
    EXPECT_EQ(grown.num_trees(), 13);

    ForestParams cold_params = grown_params;
    cold_params.num_trees = 13;
    RandomForestRegressor cold(cold_params);
    ASSERT_TRUE(cold.Fit(x, y).ok());

    // Tree t's RNG streams depend only on t, so the grown forest is the
    // cold forest: identical predictions and importances, bit for bit.
    for (size_t i = 0; i < n; ++i) {
      const auto a = grown.Predict(x.Row(i));
      const auto b = cold.Predict(x.Row(i));
      ASSERT_TRUE(a.ok());
      ASSERT_TRUE(b.ok());
      EXPECT_EQ(*a, *b) << "row " << i << " threads " << threads;
    }
    const auto grown_imp = grown.FeatureImportances();
    const auto cold_imp = cold.FeatureImportances();
    ASSERT_TRUE(grown_imp.ok());
    ASSERT_TRUE(cold_imp.ok());
    EXPECT_EQ(*grown_imp, *cold_imp);
  }
}

TEST(StreamWarmRefitTest, GrowTreesValidates) {
  RandomForestRegressor forest;
  Matrix x(10, 2);
  Vector y(10, 1.0);
  EXPECT_FALSE(forest.GrowTrees(x, y, 2).ok());  // not fitted yet
  ForestParams params;
  params.num_trees = 2;
  RandomForestRegressor fitted(params);
  Rng rng(53);
  for (double& v : x.data()) v = rng.Uniform(0.0, 1.0);
  ASSERT_TRUE(fitted.Fit(x, y).ok());
  EXPECT_FALSE(fitted.GrowTrees(Matrix(10, 3), y, 2).ok());  // arity change
  EXPECT_FALSE(fitted.GrowTrees(x, y, 0).ok());
  EXPECT_EQ(fitted.num_trees(), 2);
}

// --- ingest end-to-end ------------------------------------------------------

class StreamIngestTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    WorkbenchConfig config;
    config.workloads = {"TPC-C", "Twitter"};
    config.skus = {MakeCpuSku(2), MakeCpuSku(8)};
    config.terminals = {8};
    config.runs = 2;
    config.sim.duration_s = 30.0;
    config.sim.sample_period_s = 0.5;
    corpus_ = new ExperimentCorpus(GenerateCorpus(config).value());
  }
  static void TearDownTestSuite() {
    delete corpus_;
    corpus_ = nullptr;
  }

  static IngestConfig FastIngest() {
    IngestConfig config;
    config.window_samples = 48;
    config.min_refit_spacing = 16;
    return config;
  }

  /// Streams a low regime then a high one; returns after `total` samples.
  static void FeedShift(IncrementalIngest& ingest, int total,
                        std::vector<IngestUpdate>* updates = nullptr) {
    Rng rng(61);
    for (int i = 0; i < total; ++i) {
      const double level = i < total / 2 ? 0.2 : 0.8;
      Vector row(kNumResourceFeatures);
      for (double& v : row) {
        v = std::clamp(level + rng.Gaussian(0.0, 0.02), 0.0, 1.0);
      }
      const Result<IngestUpdate> update = ingest.Observe(row);
      ASSERT_TRUE(update.ok()) << update.status().ToString();
      if (updates != nullptr) updates->push_back(*update);
    }
  }

  static ExperimentCorpus* corpus_;
};

ExperimentCorpus* StreamIngestTest::corpus_ = nullptr;

TEST_F(StreamIngestTest, CreateValidatesInputs) {
  const NormalizationContext ctx = UnitContext();
  Experiment prototype = (*corpus_)[0];
  EXPECT_FALSE(
      IncrementalIngest::Create(FastIngest(), {}, ctx, prototype).ok());
  // Plan-only selections have no stream to watch.
  EXPECT_FALSE(IncrementalIngest::Create(FastIngest(), {kNumResourceFeatures},
                                         ctx, prototype)
                   .ok());
  EXPECT_FALSE(
      IncrementalIngest::Create(FastIngest(), {kNumFeatures}, ctx, prototype)
          .ok());
  EXPECT_TRUE(
      IncrementalIngest::Create(FastIngest(), {0, 1}, ctx, prototype).ok());
}

TEST_F(StreamIngestTest, WindowEnvParsingIsStrict) {
  using stream_internal::ParseWindowEnv;
  auto unset = ParseWindowEnv(nullptr);
  ASSERT_TRUE(unset.ok());
  EXPECT_FALSE(unset->has_value());
  auto empty = ParseWindowEnv("");
  ASSERT_TRUE(empty.ok());
  EXPECT_FALSE(empty->has_value());
  auto good = ParseWindowEnv("96");
  ASSERT_TRUE(good.ok());
  EXPECT_EQ(good->value(), 96u);
  EXPECT_FALSE(ParseWindowEnv("abc").ok());
  EXPECT_FALSE(ParseWindowEnv("12x").ok());
  EXPECT_FALSE(ParseWindowEnv("-4").ok());
  EXPECT_FALSE(ParseWindowEnv("1").ok());  // below the 2-sample minimum
}

TEST_F(StreamIngestTest, RegimeShiftTriggersDetectionSegmentsAndRefit) {
  Result<IncrementalIngest> ingest = IncrementalIngest::Create(
      FastIngest(), {0, 1, 2}, UnitContext(), (*corpus_)[0]);
  ASSERT_TRUE(ingest.ok()) << ingest.status().ToString();
  ingest->set_base_corpus(*corpus_);

  std::vector<ExperimentCorpus> refit_corpora;
  ingest->set_refit_sink([&refit_corpora](ExperimentCorpus corpus) {
    refit_corpora.push_back(std::move(corpus));
  });

  // 72 samples with a shift at 36 keep the shift interior to the 48-sample
  // window ([24, 72) at the end), so the segmentation must still see it.
  std::vector<IngestUpdate> updates;
  FeedShift(*ingest, 72, &updates);

  EXPECT_EQ(ingest->samples_ingested(), 72u);
  EXPECT_GE(ingest->change_points_detected(), 1u);
  ASSERT_GE(ingest->refits_requested(), 1u);
  ASSERT_FALSE(refit_corpora.empty());
  // Refit corpus = base + the materialised window.
  EXPECT_EQ(refit_corpora.front().size(), corpus_->size() + 1);
  const Experiment& window_experiment =
      refit_corpora.front()[corpus_->size()];
  EXPECT_EQ(window_experiment.workload, (*corpus_)[0].workload);
  EXPECT_GT(window_experiment.resource.num_samples(), 0u);
  EXPECT_LE(window_experiment.resource.num_samples(),
            ingest->window().capacity());

  // The change point lands near the midpoint shift.
  bool found_near_shift = false;
  for (const IngestUpdate& update : updates) {
    if (update.change_point && update.change_point_index >= 32 &&
        update.change_point_index <= 44) {
      found_near_shift = true;
    }
  }
  EXPECT_TRUE(found_near_shift);

  // The window still spans the shift here, so it re-segments into >= 2
  // non-empty pieces covering the whole window.
  const std::vector<Segment> segments = ingest->WindowSegments();
  ASSERT_GE(segments.size(), 2u);
  size_t cursor = 0;
  for (const Segment& segment : segments) {
    EXPECT_EQ(segment.begin, cursor);
    EXPECT_LT(segment.begin, segment.end);
    cursor = segment.end;
  }
  EXPECT_EQ(cursor, ingest->window().size());
}

TEST_F(StreamIngestTest, OldChangePointsSlideOutOfTheWindow) {
  Result<IncrementalIngest> ingest = IncrementalIngest::Create(
      FastIngest(), {0}, UnitContext(), (*corpus_)[0]);
  ASSERT_TRUE(ingest.ok());
  FeedShift(*ingest, 96);
  ASSERT_GE(ingest->change_points_detected(), 1u);
  // Keep feeding the high regime until the shift leaves the 48-sample
  // window; the segmentation collapses back to a single segment.
  Rng rng(62);
  for (int i = 0; i < 120; ++i) {
    Vector row(kNumResourceFeatures);
    for (double& v : row) {
      v = std::clamp(0.8 + rng.Gaussian(0.0, 0.02), 0.0, 1.0);
    }
    ASSERT_TRUE(ingest->Observe(row).ok());
  }
  EXPECT_EQ(ingest->WindowSegments().size(), 1u);
}

TEST_F(StreamIngestTest, DebounceSuppressesRefitStorms) {
  IngestConfig config = FastIngest();
  config.min_refit_spacing = 100000;  // effectively never
  Result<IncrementalIngest> ingest =
      IncrementalIngest::Create(config, {0, 1}, UnitContext(), (*corpus_)[0]);
  ASSERT_TRUE(ingest.ok());
  int fired = 0;
  ingest->set_refit_sink([&fired](ExperimentCorpus) { ++fired; });
  FeedShift(*ingest, 96);
  EXPECT_GE(ingest->change_points_detected(), 1u);
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(ingest->refits_requested(), 0u);
}

TEST_F(StreamIngestTest, ReferenceEngineGrowsOnRegimeShift) {
  const std::vector<size_t> features = {0, 1};
  const NormalizationContext ctx = UnitContext();
  // Seed the engine with the prototype's own Hist-FP trace.
  const Result<Matrix> seed_trace =
      BuildHistFp((*corpus_)[0], features, ctx);
  ASSERT_TRUE(seed_trace.ok());
  Result<SimilarityQueryEngine> engine =
      SimilarityQueryEngine::Build({*seed_trace}, "L2,1-Norm");
  ASSERT_TRUE(engine.ok());

  Result<IncrementalIngest> ingest =
      IncrementalIngest::Create(FastIngest(), features, ctx, (*corpus_)[0]);
  ASSERT_TRUE(ingest.ok());
  ingest->set_reference_engine(&*engine);
  FeedShift(*ingest, 96);
  ASSERT_GE(ingest->reference_appends(), 1u);
  EXPECT_EQ(engine->corpus().size(), 1u + ingest->reference_appends());
  // Appended traces are the window's representation: same shape as any
  // other Hist-FP trace, so queries keep working.
  EXPECT_TRUE(engine->RankNeighbors(*seed_trace, 2).ok());
}

TEST_F(StreamIngestTest, ConnectIngestDrivesServiceRefits) {
  serve::ServiceConfig service_config;
  service_config.pipeline.selector = "fANOVA";
  service_config.refit.initial_backoff_s = 0.001;
  service_config.refit.max_backoff_s = 0.002;
  serve::PredictionService service(service_config);
  ASSERT_TRUE(service.Start(*corpus_).ok());
  const uint64_t initial_epoch = service.snapshot_epoch();

  Result<IncrementalIngest> ingest = IncrementalIngest::Create(
      FastIngest(), {0, 1, 2}, UnitContext(), (*corpus_)[0]);
  ASSERT_TRUE(ingest.ok());
  ingest->set_base_corpus(*corpus_);
  serve::ConnectIngest(*ingest, service);

  FeedShift(*ingest, 96);
  ASSERT_GE(ingest->refits_requested(), 1u);
  service.WaitForRefits();
  EXPECT_GT(service.snapshot_epoch(), initial_epoch);
  EXPECT_EQ(service.state(), serve::ServingState::kServing);
}

// --- warm pipeline refit ----------------------------------------------------

TEST_F(StreamIngestTest, PipelineRefitMatchesFullFitOnStableSelection) {
  PipelineConfig config;
  config.selector = "fANOVA";
  config.incremental_refit = true;

  Pipeline incremental(config);
  ASSERT_TRUE(incremental.Fit(*corpus_).ok());
  const std::vector<size_t> first_selection = incremental.selected_features();
  ASSERT_TRUE(incremental.Refit(*corpus_).ok());
  // The warm path reuses the fitted selection verbatim.
  EXPECT_EQ(incremental.selected_features(), first_selection);

  Pipeline cold(config);
  ASSERT_TRUE(cold.Fit(*corpus_).ok());

  const Experiment& observed = (*corpus_)[0];
  const auto warm_prediction = incremental.PredictThroughput(observed, 8);
  const auto cold_prediction = cold.PredictThroughput(observed, 8);
  ASSERT_TRUE(warm_prediction.ok()) << warm_prediction.status().ToString();
  ASSERT_TRUE(cold_prediction.ok());
  EXPECT_EQ(warm_prediction->throughput_tps, cold_prediction->throughput_tps);
  EXPECT_EQ(warm_prediction->reference_workload,
            cold_prediction->reference_workload);
  EXPECT_EQ(warm_prediction->similarity_distance,
            cold_prediction->similarity_distance);
}

TEST_F(StreamIngestTest, PipelineRefitFallsBackToFullFit) {
  PipelineConfig config;
  config.selector = "fANOVA";
  // Knob off: Refit must be exactly Fit, including from the unfitted state.
  Pipeline pipeline(config);
  ASSERT_TRUE(pipeline.Refit(*corpus_).ok());
  EXPECT_TRUE(pipeline.fitted());

  config.incremental_refit = true;
  Pipeline unfitted(config);
  // No prior Fit: the warm path has nothing to reuse and runs a full fit.
  ASSERT_TRUE(unfitted.Refit(*corpus_).ok());
  EXPECT_TRUE(unfitted.fitted());
  EXPECT_EQ(unfitted.selected_features(), pipeline.selected_features());
}

}  // namespace
}  // namespace wpred
