// Incremental ingestion (src/stream/, DESIGN.md §13). The load-bearing
// claim everywhere is EQUIVALENCE: the incremental paths — the sliding
// window's rows, online change-point detection, corpus/envelope appends, the
// pipeline refit that keeps its selection — must reproduce what a
// from-scratch batch rebuild would compute, bit-identically, at any thread
// count and schedule. The Stream* suites also run under TSan in CI.

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/workbench.h"
#include "obs/metrics.h"
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

// --- sliding window: the ring holds the last pushed rows --------------------

TEST(StreamWindowTest, MtsMatchesBatchBuildAtEveryFillLevel) {
  constexpr size_t kCapacity = 16;
  Result<SlidingWindow> window = SlidingWindow::Create(kCapacity, UnitContext());
  ASSERT_TRUE(window.ok()) << window.status().ToString();
  Rng rng(41);
  std::vector<Vector> pushed;
  // 40 pushes cross the partial-fill and exactly-full states and wrap the
  // ring twice. At every fill level Rows() is the last min(n, capacity)
  // pushed rows, oldest first: the series the batch MTS builder reads.
  for (int i = 0; i < 40; ++i) {
    pushed.push_back(RandomSample(rng));
    ASSERT_TRUE(window->Push(pushed.back()).ok());
    const size_t held = std::min(pushed.size(), kCapacity);
    EXPECT_EQ(window->size(), held);
    EXPECT_EQ(window->samples_pushed(), pushed.size());
    const Matrix rows = window->Rows();
    ASSERT_EQ(rows.rows(), held);
    for (size_t r = 0; r < held; ++r) {
      EXPECT_EQ(rows.Row(r), pushed[pushed.size() - held + r])
          << "push " << i << " row " << r;
    }
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
  // last bin, for the batch builder and the window alike.
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
  EXPECT_EQ(window->HistFp({kNumResourceFeatures}).status().code(),
            StatusCode::kInvalidArgument);  // plan feature
  EXPECT_EQ(window->HistFp({}).status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(window->HistFp({0}).status().code(),
            StatusCode::kFailedPrecondition);  // still empty
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
          // Query before appending — the append must leave an engine that
          // answers like one built over the whole corpus.
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

        // Live ingest's pattern: one trace per append and a query between
        // appends. An append may reallocate the engine's flat arrays, so
        // every prefix is checked against a from-scratch Build of it.
        Result<SimilarityQueryEngine> live = SimilarityQueryEngine::Build(
            {all[0]}, measure, /*window=*/3, threads, shard_traces);
        ASSERT_TRUE(live.ok()) << live.status().ToString();
        for (size_t n = 2; n <= all.size(); ++n) {
          ASSERT_TRUE(live->RankNeighbors(query, 1).ok());
          ASSERT_TRUE(live->AppendTraces({all[n - 1]}, threads).ok());
          const Result<SimilarityQueryEngine> scratch =
              SimilarityQueryEngine::Build({all.begin(), all.begin() + n},
                                           measure, /*window=*/3, threads,
                                           shard_traces);
          ASSERT_TRUE(scratch.ok());
          const Result<Vector> live_d = live->Distances(query, threads);
          const Result<Vector> scratch_d = scratch->Distances(query, threads);
          ASSERT_TRUE(live_d.ok());
          ASSERT_TRUE(scratch_d.ok());
          EXPECT_EQ(*live_d, *scratch_d)
              << measure << " shards=" << shard_traces
              << " threads=" << threads << " n=" << n;
          for (const size_t k : {1ul, 5ul, n}) {
            const auto live_k = live->RankNeighbors(query, k);
            const auto scratch_k = scratch->RankNeighbors(query, k);
            ASSERT_TRUE(live_k.ok());
            ASSERT_TRUE(scratch_k.ok());
            EXPECT_EQ(*live_k, *scratch_k)
                << measure << " shards=" << shard_traces << " k=" << k
                << " n=" << n;
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
  // The window needs two samples; a default config gets the 240-sample one.
  for (const size_t samples : {size_t{0}, size_t{1}}) {
    IngestConfig config = FastIngest();
    config.window_samples = samples;
    EXPECT_FALSE(
        IncrementalIngest::Create(config, {0, 1}, ctx, prototype).ok())
        << samples;
  }
  const Result<IncrementalIngest> defaults =
      IncrementalIngest::Create(IngestConfig{}, {0, 1}, ctx, prototype);
  ASSERT_TRUE(defaults.ok()) << defaults.status().ToString();
  EXPECT_EQ(defaults->window().capacity(), kDefaultStreamWindowSamples);
  EXPECT_EQ(kDefaultStreamWindowSamples, 240u);
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
  // Every requested refit reached the sink.
  ASSERT_EQ(refit_corpora.size(), ingest->refits_requested());
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

  // After the shift and the refits, the ingest window's Hist-FP still
  // equals the batch builder over the materialised window.
  const std::vector<size_t> features = {0, 1, 2};
  const Experiment window_now = ingest->WindowExperiment();
  const Result<Matrix> window_hist = ingest->window().HistFp(features);
  const Result<Matrix> batch_hist =
      BuildHistFp(window_now, features, UnitContext());
  ASSERT_TRUE(window_hist.ok()) << window_hist.status().ToString();
  ASSERT_TRUE(batch_hist.ok()) << batch_hist.status().ToString();
  EXPECT_EQ(*window_hist, *batch_hist);
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

// Served as the live loop serves: every refit corpus is the base corpus plus
// a TPC-C window, so the workload set never changes and every refit after
// the initial fit reuses its selection.
TEST_F(StreamIngestTest, ConnectIngestDrivesServiceRefits) {
  serve::ServiceConfig service_config;
  service_config.pipeline.selector = "fANOVA";
  service_config.pipeline.incremental_refit = true;
  obs::SetMetricsEnabled(true);
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  const obs::Counter& warm = registry.GetCounter("serve.refit.warm");
  const uint64_t warm_before = warm.value();
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
  obs::SetMetricsEnabled(false);
  EXPECT_GT(service.snapshot_epoch(), initial_epoch);
  EXPECT_EQ(service.state(), serve::ServingState::kServing);
  EXPECT_EQ(warm.value() - warm_before, service.publish_count() - 1);
  registry.ResetAll();
}

// --- warm pipeline refit ----------------------------------------------------

// Refit onto another corpus whose cold fit selects the same features from
// other scores: the corpus less its first Twitter run. The warm refit keeps
// the first fit's scores, which tells it from a cold one, and still predicts
// bit-equal to the cold fit.
TEST_F(StreamIngestTest, PipelineRefitMatchesFullFitOnStableSelection) {
  PipelineConfig config;
  config.selector = "fANOVA";
  config.incremental_refit = true;

  Pipeline incremental(config);
  ASSERT_TRUE(incremental.Fit(*corpus_).ok());
  const FeatureSelection first = incremental.selection();
  std::vector<size_t> keep(corpus_->size());
  std::iota(keep.begin(), keep.end(), size_t{0});
  keep.erase(keep.begin() +
             static_cast<std::ptrdiff_t>(corpus_->IndicesOf("Twitter")[0]));
  const ExperimentCorpus refit_corpus = corpus_->Subset(keep);

  Pipeline cold(config);
  ASSERT_TRUE(cold.Fit(refit_corpus).ok());
  ASSERT_EQ(cold.selected_features(), first.features);
  ASSERT_NE(cold.feature_ranking().scores, first.ranking.scores);

  ASSERT_TRUE(incremental.Refit(refit_corpus).ok());
  EXPECT_FALSE(incremental.reselected());
  EXPECT_EQ(incremental.feature_ranking().scores, first.ranking.scores);
  EXPECT_EQ(incremental.selected_features(), first.features);

  for (const Experiment& observed : corpus_->experiments()) {
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
