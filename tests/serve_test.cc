// Resilient serving core (src/serve/, DESIGN.md §11): snapshot publication,
// supervised refits with graceful degradation, admission control, and
// crash-safe checkpoint/restore. The ServeConcurrency* suites run under
// TSan in CI: readers hammer the left-right SnapshotBox while a writer
// publishes, proving the wait-free read path has no torn state.

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/workbench.h"
#include "obs/metrics.h"
#include "serve/checkpoint.h"
#include "serve/service.h"
#include "serve/snapshot.h"
#include "sim/hardware.h"

namespace wpred::serve {
namespace {

// One small shared corpus for the whole file; Fit() on it takes well under a
// second, so supervised-refit tests stay fast.
class ServeTest : public ::testing::Test {
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
    observed_ = new Experiment(
        RunOne("TPC-C", MakeCpuSku(2), 8,
               /*run=*/5, SimConfig{.duration_s = 30.0, .sample_period_s = 0.5},
               /*base_seed=*/31415)
            .value());
    // The warm-refit tests' second corpora: the same grid at another seed
    // (same workloads, another cold selection), and the grid plus TPC-H.
    config.base_seed = 1;
    reseeded_ = new ExperimentCorpus(GenerateCorpus(config).value());
    config.base_seed = WorkbenchConfig{}.base_seed;
    config.workloads.push_back("TPC-H");
    widened_ = new ExperimentCorpus(GenerateCorpus(config).value());
  }
  static void TearDownTestSuite() {
    delete corpus_;
    delete observed_;
    delete reseeded_;
    delete widened_;
    corpus_ = nullptr;
    observed_ = nullptr;
    reseeded_ = nullptr;
    widened_ = nullptr;
  }

  static PipelineConfig FastPipeline() {
    PipelineConfig config;
    config.selector = "fANOVA";  // fast, deterministic
    return config;
  }

  static PipelineConfig WarmPipeline() {
    PipelineConfig config = FastPipeline();
    config.incremental_refit = true;
    return config;
  }

  static FeatureSelection FittedSelection() {
    Pipeline pipeline(FastPipeline());
    EXPECT_TRUE(pipeline.Fit(*corpus_).ok());
    return pipeline.selection();
  }

  /// Two reads agree in every bit, features included.
  static void ExpectSameRead(const Pipeline::Prediction& actual,
                             const Pipeline::Prediction& expected) {
    EXPECT_EQ(std::bit_cast<uint64_t>(actual.throughput_tps),
              std::bit_cast<uint64_t>(expected.throughput_tps));
    EXPECT_EQ(std::bit_cast<uint64_t>(actual.similarity_distance),
              std::bit_cast<uint64_t>(expected.similarity_distance));
    EXPECT_EQ(actual.reference_workload, expected.reference_workload);
    EXPECT_EQ(actual.effective_features, expected.effective_features);
  }

  static ServiceConfig FastService() {
    ServiceConfig config;
    config.pipeline = FastPipeline();
    return config;
  }

  static std::string TempPath(const std::string& name) {
    return ::testing::TempDir() + name;
  }

  static ExperimentCorpus* corpus_;
  static Experiment* observed_;
  static ExperimentCorpus* reseeded_;
  static ExperimentCorpus* widened_;
};

ExperimentCorpus* ServeTest::corpus_ = nullptr;
Experiment* ServeTest::observed_ = nullptr;
ExperimentCorpus* ServeTest::reseeded_ = nullptr;
ExperimentCorpus* ServeTest::widened_ = nullptr;

// --- snapshot box (serial semantics) ----------------------------------------

TEST(SnapshotBoxTest, ColdBoxYieldsNullGuardAndEpochZero) {
  SnapshotBox box;
  EXPECT_EQ(box.CurrentEpoch(), 0u);
  SnapshotBox::ReadGuard guard = box.Acquire();
  EXPECT_FALSE(guard);
  EXPECT_EQ(guard.get(), nullptr);
}

TEST(SnapshotBoxTest, PublishMakesSnapshotVisibleInOrder) {
  SnapshotBox box;
  auto first = std::make_shared<FittedSnapshot>();
  first->epoch = 1;
  box.Publish(first);
  EXPECT_EQ(box.CurrentEpoch(), 1u);
  {
    SnapshotBox::ReadGuard guard = box.Acquire();
    ASSERT_TRUE(guard);
    EXPECT_EQ(guard->epoch, 1u);
  }
  // Left-right semantics: Publish blocks until readers of the retired epoch
  // depart, so guards must be released before the writer can finish. (The
  // concurrency suite below exercises publishes racing live readers.)
  auto second = std::make_shared<FittedSnapshot>();
  second->epoch = 2;
  box.Publish(second);
  EXPECT_EQ(box.CurrentEpoch(), 2u);
}

TEST(SnapshotBoxTest, GuardKeepsSnapshotUsableWhileWriterWaits) {
  SnapshotBox box;
  auto first = std::make_shared<FittedSnapshot>();
  first->epoch = 1;
  box.Publish(first);

  SnapshotBox::ReadGuard pinned = box.Acquire();
  ASSERT_TRUE(pinned);
  auto second = std::make_shared<FittedSnapshot>();
  second->epoch = 2;
  std::atomic<bool> published{false};
  // The writer flips to epoch 2 immediately, then blocks draining the
  // reader; the pinned snapshot stays fully usable the whole time.
  std::thread publisher([&] {
    box.Publish(second);
    published.store(true, std::memory_order_release);
  });
  while (box.CurrentEpoch() != 2u) std::this_thread::yield();
  EXPECT_EQ(pinned->epoch, 1u);  // still valid mid-publish
  EXPECT_FALSE(published.load(std::memory_order_acquire));
  { SnapshotBox::ReadGuard released = std::move(pinned); }  // depart
  publisher.join();
  EXPECT_TRUE(published.load(std::memory_order_acquire));
}

// --- service lifecycle ------------------------------------------------------

TEST_F(ServeTest, ColdServiceRefusesReadsWithUnavailable) {
  PredictionService service(FastService());
  const auto prediction = service.Predict(*observed_, 8);
  ASSERT_FALSE(prediction.ok());
  EXPECT_EQ(prediction.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(service.state(), ServingState::kCold);
  EXPECT_EQ(service.snapshot_epoch(), 0u);
}

// A reference experiment of the wrong resource width fails an ungated
// Start, not the process; gated, it is quarantined and the rest serve.
TEST_F(ServeTest, StartRejectsWrongResourceWidth) {
  ExperimentCorpus narrow = *corpus_;
  narrow[1].resource.values = narrow[1].resource.values.SelectCols({0, 1, 2});
  ServiceConfig ungated = FastService();
  ungated.pipeline.quality_gate = false;
  PredictionService service(ungated);
  const Status status = service.Start(narrow);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << status.ToString();
  EXPECT_EQ(service.snapshot_epoch(), 0u);
  EXPECT_EQ(service.Predict(*observed_, 8).status().code(),
            StatusCode::kUnavailable);

  PredictionService gated(FastService());
  ASSERT_TRUE(gated.Start(narrow).ok());
  EXPECT_TRUE(gated.Predict(*observed_, 8).ok());
}

TEST_F(ServeTest, StartPublishesEpochOneAndServes) {
  PredictionService service(FastService());
  ASSERT_TRUE(service.Start(*corpus_).ok());
  EXPECT_EQ(service.state(), ServingState::kServing);
  EXPECT_EQ(service.snapshot_epoch(), 1u);
  EXPECT_GE(service.snapshot_age_s(), 0.0);

  const auto prediction = service.Predict(*observed_, 8);
  ASSERT_TRUE(prediction.ok()) << prediction.status().ToString();
  EXPECT_EQ(prediction->reference_workload, "TPC-C");

  const auto neighbors = service.NearestReferences(*observed_, 3);
  ASSERT_TRUE(neighbors.ok());
  EXPECT_EQ(neighbors->size(), 3u);

  const auto ranked = service.RankWorkloads(*observed_);
  ASSERT_TRUE(ranked.ok());
  EXPECT_EQ(ranked->front().workload, "TPC-C");
}

TEST_F(ServeTest, ServiceMatchesStandalonePipelineBitForBit) {
  Pipeline pipeline(FastPipeline());
  ASSERT_TRUE(pipeline.Fit(*corpus_).ok());
  const auto direct = pipeline.PredictThroughput(*observed_, 8);
  ASSERT_TRUE(direct.ok());

  PredictionService service(FastService());
  ASSERT_TRUE(service.Start(*corpus_).ok());
  const auto served = service.Predict(*observed_, 8);
  ASSERT_TRUE(served.ok());
  EXPECT_EQ(served->throughput_tps, direct->throughput_tps);
  EXPECT_EQ(served->similarity_distance, direct->similarity_distance);
  EXPECT_EQ(served->reference_workload, direct->reference_workload);
}

TEST_F(ServeTest, NarrowObservationFailsTheReadNotTheServer) {
  // An MTS pipeline selects resource columns only, so a two-column resource
  // matrix is missing some of them (this used to abort in Matrix::Col).
  ServiceConfig config = FastService();
  config.pipeline.representation = Representation::kMts;
  config.pipeline.measure = "Canb-Norm";
  config.pipeline.top_k = 4;
  PredictionService service(config);
  ASSERT_TRUE(service.Start(*corpus_).ok());
  const auto before = service.Predict(*observed_, 8);
  ASSERT_TRUE(before.ok()) << before.status().ToString();
  ASSERT_TRUE(std::any_of(before->effective_features.begin(),
                          before->effective_features.end(),
                          [](size_t f) { return f >= 2; }));

  Experiment narrow = *observed_;
  narrow.resource.values = narrow.resource.values.SelectCols({0, 1});
  const auto prediction = service.Predict(narrow, 8);
  ASSERT_FALSE(prediction.ok());
  EXPECT_EQ(prediction.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(service.state(), ServingState::kServing);

  const auto after = service.Predict(*observed_, 8);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->throughput_tps, before->throughput_tps);
  EXPECT_EQ(after->similarity_distance, before->similarity_distance);
}

// --- refit supervision & degradation ----------------------------------------

TEST_F(ServeTest, FailedRefitKeepsLastGoodSnapshotAndDegrades) {
  PredictionService service(FastService());
  ASSERT_TRUE(service.Start(*corpus_).ok());
  const auto before = service.Predict(*observed_, 8);
  ASSERT_TRUE(before.ok());

  service.set_refit_fault_hook(
      [] { return Status::IoError("injected: telemetry store unreachable"); });
  const Status refit = service.RefitNow(*corpus_);
  ASSERT_FALSE(refit.ok());

  // Still serving — the stale snapshot, with the service marked degraded.
  EXPECT_EQ(service.state(), ServingState::kDegraded);
  EXPECT_NE(service.degraded_reason().find("telemetry store unreachable"),
            std::string::npos)
      << service.degraded_reason();
  EXPECT_EQ(service.snapshot_epoch(), 1u);
  EXPECT_EQ(service.refit_failures(), 1u);
  const auto during = service.Predict(*observed_, 8);
  ASSERT_TRUE(during.ok());
  EXPECT_EQ(during->throughput_tps, before->throughput_tps);

  // Recovery: the next successful refit publishes and clears degradation.
  service.set_refit_fault_hook(nullptr);
  ASSERT_TRUE(service.RefitNow(*corpus_).ok());
  EXPECT_EQ(service.state(), ServingState::kServing);
  EXPECT_TRUE(service.degraded_reason().empty());
  EXPECT_EQ(service.snapshot_epoch(), 2u);
  EXPECT_GE(service.degraded_seconds_total(), 0.0);
}

TEST_F(ServeTest, UnfittableCorpusDegradesWithoutFaultHook) {
  PredictionService service(FastService());
  ASSERT_TRUE(service.Start(*corpus_).ok());
  // An empty corpus is unfittable at the data level — no injection seam
  // involved; the quality gate rejects it inside Fit().
  const Status refit = service.RefitNow(ExperimentCorpus{});
  ASSERT_FALSE(refit.ok());
  EXPECT_EQ(service.state(), ServingState::kDegraded);
  EXPECT_TRUE(service.Predict(*observed_, 8).ok());
}

TEST_F(ServeTest, FailedRefitRunsOnce) {
  // The fit is deterministic in (config, corpus): a failed refit request is
  // one attempt, never a retry of the same doomed fit.
  PredictionService service(FastService());
  int calls = 0;
  service.set_refit_fault_hook([&calls] {
    ++calls;
    return Status::IoError("injected");
  });
  const Status refit = service.RefitNow(*corpus_);
  ASSERT_FALSE(refit.ok());
  EXPECT_EQ(refit.code(), StatusCode::kIoError);
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(service.refit_failures(), 1u);
}

TEST_F(ServeTest, BackgroundRefitPublishesAsynchronously) {
  PredictionService service(FastService());
  ASSERT_TRUE(service.Start(*corpus_).ok());
  service.RequestRefit(*corpus_);
  service.WaitForRefits();
  EXPECT_EQ(service.snapshot_epoch(), 2u);
  EXPECT_EQ(service.state(), ServingState::kServing);
  EXPECT_EQ(service.publish_count(), 2u);
}

// --- warm refits ------------------------------------------------------------

// Start on A, refit on B with A's workloads: the service serves exactly
// Pipeline{Fit(A); Refit(B)}, i.e. A's selection over B, and so does a
// service restored from the checkpoint that refit wrote.
TEST_F(ServeTest, WarmRefitServesFitThenRefitBitForBit) {
  Pipeline cold_a(WarmPipeline());
  Pipeline cold_b(WarmPipeline());
  ASSERT_TRUE(cold_a.Fit(*corpus_).ok());
  ASSERT_TRUE(cold_b.Fit(*reseeded_).ok());
  ASSERT_EQ(cold_b.selection().workloads, cold_a.selection().workloads);
  ASSERT_NE(cold_b.selected_features(), cold_a.selected_features())
      << "B must select differently, or warm and cold refits look alike";

  Pipeline expected(WarmPipeline());
  ASSERT_TRUE(expected.Fit(*corpus_).ok());
  ASSERT_TRUE(expected.Refit(*reseeded_).ok());
  EXPECT_FALSE(expected.reselected());
  const auto want = expected.PredictThroughput(*observed_, 8);
  ASSERT_TRUE(want.ok()) << want.status().ToString();
  EXPECT_EQ(want->effective_features, cold_a.selected_features());

  const std::string path = TempPath("warm_refit.ckpt");
  std::remove(path.c_str());
  ServiceConfig config = FastService();
  config.pipeline = WarmPipeline();
  config.checkpoint_path = path;
  {
    PredictionService service(config);
    ASSERT_TRUE(service.Start(*corpus_).ok());
    ASSERT_TRUE(service.RefitNow(*reseeded_).ok());
    const auto served = service.Predict(*observed_, 8);
    ASSERT_TRUE(served.ok()) << served.status().ToString();
    ExpectSameRead(*served, *want);
  }
  {
    PredictionService restored(config);
    ASSERT_TRUE(restored.StartFromCheckpoint().ok());
    const auto served = restored.Predict(*observed_, 8);
    ASSERT_TRUE(served.ok()) << served.status().ToString();
    ExpectSameRead(*served, *want);
  }
  std::remove(path.c_str());
}

// A refit corpus that adds a workload poses another selection problem: the
// service selects afresh and serves exactly a cold Fit of it.
TEST_F(ServeTest, RefitOnNewWorkloadSetReselects) {
  Pipeline cold(WarmPipeline());
  ASSERT_TRUE(cold.Fit(*widened_).ok());
  const auto want = cold.PredictThroughput(*observed_, 8);
  ASSERT_TRUE(want.ok()) << want.status().ToString();

  ServiceConfig config = FastService();
  config.pipeline = WarmPipeline();
  PredictionService service(config);
  ASSERT_TRUE(service.Start(*corpus_).ok());
  ASSERT_TRUE(service.RefitNow(*widened_).ok());
  const auto served = service.Predict(*observed_, 8);
  ASSERT_TRUE(served.ok()) << served.status().ToString();
  ExpectSameRead(*served, *want);
}

// Each publish counts as warm or reselected, and recording those counts
// changes no served bit.
TEST_F(ServeTest, PublishesCountWarmOrReselected) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  const obs::Counter& warm = registry.GetCounter("serve.refit.warm");
  const obs::Counter& reselected =
      registry.GetCounter("serve.refit.reselected");
  const auto serve_sequence = [](bool metrics) {
    obs::SetMetricsEnabled(metrics);
    ServiceConfig config = FastService();
    config.pipeline = WarmPipeline();
    PredictionService service(config);
    EXPECT_TRUE(service.Start(*corpus_).ok());       // selects
    EXPECT_TRUE(service.RefitNow(*reseeded_).ok());  // warm
    EXPECT_TRUE(service.RefitNow(*widened_).ok());   // reselects
    EXPECT_TRUE(service.RefitNow(*widened_).ok());   // warm
    obs::SetMetricsEnabled(false);
    return service.Predict(*observed_, 8);
  };
  const uint64_t warm_before = warm.value();
  const uint64_t reselected_before = reselected.value();
  const auto plain = serve_sequence(false);
  EXPECT_EQ(warm.value(), warm_before);
  const auto recorded = serve_sequence(true);
  EXPECT_EQ(warm.value() - warm_before, 2u);
  EXPECT_EQ(reselected.value() - reselected_before, 2u);
  ASSERT_TRUE(plain.ok());
  ASSERT_TRUE(recorded.ok());
  ExpectSameRead(*recorded, *plain);
  registry.ResetAll();
}

// With incremental_refit off every refit is a cold Fit.
TEST_F(ServeTest, ColdConfigRefitsSelectEveryTime) {
  PredictionService service(FastService());
  ASSERT_TRUE(service.Start(*corpus_).ok());
  ASSERT_TRUE(service.RefitNow(*reseeded_).ok());
  Pipeline cold(FastPipeline());
  ASSERT_TRUE(cold.Fit(*reseeded_).ok());
  const auto want = cold.PredictThroughput(*observed_, 8);
  const auto served = service.Predict(*observed_, 8);
  ASSERT_TRUE(want.ok());
  ASSERT_TRUE(served.ok());
  ExpectSameRead(*served, *want);
}

// A restored snapshot's selection carries over only to refits whose config
// selects the same way: a service configured for another top-k selects
// afresh on its first refit.
TEST_F(ServeTest, RestoredSelectionCarriesOverOnlyToAlikeConfig) {
  const std::string path = TempPath("alike.ckpt");
  std::remove(path.c_str());
  ServiceConfig narrow = FastService();
  narrow.pipeline = WarmPipeline();
  narrow.pipeline.top_k = 4;
  narrow.checkpoint_path = path;
  {
    PredictionService service(narrow);
    ASSERT_TRUE(service.Start(*corpus_).ok());
  }
  ServiceConfig wide = narrow;
  wide.pipeline.top_k = 7;
  PredictionService service(wide);
  ASSERT_TRUE(service.StartFromCheckpoint().ok());
  const auto restored = service.Predict(*observed_, 8);
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored->effective_features.size(), 4u);
  ASSERT_TRUE(service.RefitNow(*corpus_).ok());
  const auto refitted = service.Predict(*observed_, 8);
  ASSERT_TRUE(refitted.ok());
  EXPECT_EQ(refitted->effective_features.size(), 7u);
  std::remove(path.c_str());
}

// --- admission control ------------------------------------------------------

TEST_F(ServeTest, OverloadShedsWithUnavailable) {
  ServiceConfig config = FastService();
  config.max_in_flight = 1;
  PredictionService service(config);
  ASSERT_TRUE(service.Start(*corpus_).ok());

  // Hammer the read path from enough threads that >1 read is in flight at
  // once; each shed must surface as Unavailable, never a crash or a wrong
  // answer.
  constexpr int kThreads = 8;
  constexpr int kReadsPerThread = 50;
  std::atomic<int64_t> ok_count{0};
  std::atomic<int64_t> shed_count{0};
  std::atomic<int64_t> other_count{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kReadsPerThread; ++i) {
        const auto result = service.RankWorkloads(*observed_);
        if (result.ok()) {
          ok_count.fetch_add(1);
        } else if (result.status().code() == StatusCode::kUnavailable) {
          shed_count.fetch_add(1);
        } else {
          other_count.fetch_add(1);
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();

  EXPECT_EQ(ok_count + shed_count, kThreads * kReadsPerThread);
  EXPECT_EQ(other_count, 0);
  EXPECT_GT(ok_count, 0);
  EXPECT_EQ(service.shed_count(), static_cast<uint64_t>(shed_count.load()));
}

// --- checkpoint / restore ---------------------------------------------------

TEST_F(ServeTest, CheckpointRoundTripsTheFitClosure) {
  const std::string path = TempPath("roundtrip.ckpt");
  // Every PipelineConfig field away from its default, so a field the codec
  // drops reads back as the default and fails below.
  PipelineConfig config = FastPipeline();
  config.top_k = 5;
  config.representation = Representation::kPhaseFp;
  config.measure = "Dependent-DTW";
  config.strategy = "GB";
  config.context = ModelContext::kSingle;
  config.subsamples = 4;
  config.num_threads = 3;
  config.similarity_shard_traces = 5;
  config.similarity_sketch_bins = 16;
  config.quality_gate = false;
  config.quality.stuck_run_fraction = 0.25;
  config.quality.max_bad_fraction = 0.75;
  config.quality.min_samples = 12;
  config.quality.max_dead_features = 1;
  config.incremental_refit = true;
  const FeatureSelection selection = FittedSelection();
  ASSERT_TRUE(WriteCheckpoint(path, config, *corpus_, selection).ok());
  const auto contents = ReadCheckpoint(path);
  ASSERT_TRUE(contents.ok()) << contents.status().ToString();
  const PipelineConfig& restored_config = contents->config;
  EXPECT_EQ(restored_config.selector, config.selector);
  EXPECT_EQ(restored_config.top_k, config.top_k);
  EXPECT_EQ(restored_config.representation, config.representation);
  EXPECT_EQ(restored_config.measure, config.measure);
  EXPECT_EQ(restored_config.strategy, config.strategy);
  EXPECT_EQ(restored_config.context, config.context);
  EXPECT_EQ(restored_config.subsamples, config.subsamples);
  EXPECT_EQ(restored_config.num_threads, config.num_threads);
  EXPECT_EQ(restored_config.similarity_shard_traces,
            config.similarity_shard_traces);
  EXPECT_EQ(restored_config.similarity_sketch_bins,
            config.similarity_sketch_bins);
  EXPECT_EQ(restored_config.quality_gate, config.quality_gate);
  EXPECT_EQ(restored_config.quality.stuck_run_fraction,
            config.quality.stuck_run_fraction);
  EXPECT_EQ(restored_config.quality.max_bad_fraction,
            config.quality.max_bad_fraction);
  EXPECT_EQ(restored_config.quality.min_samples, config.quality.min_samples);
  EXPECT_EQ(restored_config.quality.max_dead_features,
            config.quality.max_dead_features);
  EXPECT_EQ(restored_config.incremental_refit, config.incremental_refit);
  ASSERT_EQ(contents->corpus.size(), corpus_->size());
  for (size_t i = 0; i < corpus_->size(); ++i) {
    const Experiment& original = (*corpus_)[i];
    const Experiment& restored = contents->corpus[i];
    EXPECT_EQ(restored.workload, original.workload);
    ASSERT_EQ(restored.resource.values.rows(), original.resource.values.rows());
    ASSERT_EQ(restored.resource.values.cols(), original.resource.values.cols());
    // Bit-exact doubles: the closure must reproduce Fit() exactly.
    for (size_t r = 0; r < original.resource.values.rows(); ++r) {
      for (size_t c = 0; c < original.resource.values.cols(); ++c) {
        EXPECT_EQ(restored.resource.values(r, c),
                  original.resource.values(r, c));
      }
    }
  }
  const FeatureSelection& restored_selection = contents->selection;
  EXPECT_EQ(restored_selection.ranking.ranks, selection.ranking.ranks);
  ASSERT_EQ(restored_selection.ranking.scores.size(),
            selection.ranking.scores.size());
  for (size_t f = 0; f < selection.ranking.scores.size(); ++f) {
    EXPECT_EQ(std::bit_cast<uint64_t>(restored_selection.ranking.scores[f]),
              std::bit_cast<uint64_t>(selection.ranking.scores[f]));
  }
  EXPECT_EQ(restored_selection.features, selection.features);
  EXPECT_EQ(restored_selection.workloads, selection.workloads);
  std::remove(path.c_str());
}

TEST_F(ServeTest, RestoredServiceServesBitIdenticalPredictions) {
  const std::string path = TempPath("restore.ckpt");
  std::remove(path.c_str());  // fresh slate: first Start must cold-fit

  ServiceConfig config = FastService();
  config.checkpoint_path = path;
  Pipeline::Prediction original;
  {
    PredictionService service(config);
    ASSERT_TRUE(service.Start(*corpus_).ok());  // publishes + checkpoints
    const auto prediction = service.Predict(*observed_, 8);
    ASSERT_TRUE(prediction.ok());
    original = *prediction;
  }
  {
    // "Crashed" process restarts: restore from disk, no corpus needed.
    PredictionService service(config);
    ASSERT_TRUE(service.StartFromCheckpoint().ok());
    EXPECT_EQ(service.state(), ServingState::kServing);
    const auto prediction = service.Predict(*observed_, 8);
    ASSERT_TRUE(prediction.ok());
    EXPECT_EQ(prediction->throughput_tps, original.throughput_tps);
    EXPECT_EQ(prediction->similarity_distance, original.similarity_distance);
    EXPECT_EQ(prediction->reference_workload, original.reference_workload);
  }
  std::remove(path.c_str());
}

TEST_F(ServeTest, RestoredSnapshotPublishesTheCheckpointedShardWidth) {
  // The restore fits from the checkpointed config, not the service's, so
  // the published shard count shows whether the width survived the file.
  const std::string path = TempPath("shard_width.ckpt");
  std::remove(path.c_str());
  ServiceConfig config = FastService();
  config.checkpoint_path = path;
  config.pipeline.similarity_shard_traces = 3;
  obs::SetMetricsEnabled(true);
  obs::Gauge& shards = obs::MetricsRegistry::Global().GetGauge(
      "serve.snapshot.reference_shards");
  {
    PredictionService service(config);
    ASSERT_TRUE(service.Start(*corpus_).ok());  // cold fit + checkpoint
  }
  const double cold_shards = shards.value();
  EXPECT_EQ(cold_shards, 3.0);  // ⌈8 experiments / 3⌉
  shards.Set(0.0);
  {
    ServiceConfig restore = FastService();  // the default width
    restore.checkpoint_path = path;
    PredictionService service(restore);
    ASSERT_TRUE(service.StartFromCheckpoint().ok());
  }
  EXPECT_EQ(shards.value(), cold_shards);
  obs::SetMetricsEnabled(false);
  obs::MetricsRegistry::Global().ResetAll();
  std::remove(path.c_str());
}

TEST_F(ServeTest, MissingCheckpointIsNotFound) {
  const auto contents = ReadCheckpoint(TempPath("never_written.ckpt"));
  ASSERT_FALSE(contents.ok());
  EXPECT_EQ(contents.status().code(), StatusCode::kNotFound);
}

TEST_F(ServeTest, TruncatedCheckpointIsRejected) {
  const std::string path = TempPath("truncated.ckpt");
  ASSERT_TRUE(
      WriteCheckpoint(path, FastPipeline(), *corpus_, FittedSelection()).ok());
  std::string bytes;
  {
    std::ifstream in(path, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
  }
  ASSERT_GT(bytes.size(), 64u);
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(),
              static_cast<std::streamsize>(bytes.size() / 2));  // torn write
  }
  const auto contents = ReadCheckpoint(path);
  ASSERT_FALSE(contents.ok());
  EXPECT_EQ(contents.status().code(), StatusCode::kIoError);
  std::remove(path.c_str());
}

TEST_F(ServeTest, BitFlippedCheckpointFailsTheChecksum) {
  const std::string path = TempPath("corrupt.ckpt");
  ASSERT_TRUE(
      WriteCheckpoint(path, FastPipeline(), *corpus_, FittedSelection()).ok());
  std::string bytes;
  {
    std::ifstream in(path, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
  }
  bytes[bytes.size() / 2] ^= 0x40;  // flip one payload bit
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  const auto contents = ReadCheckpoint(path);
  ASSERT_FALSE(contents.ok());
  EXPECT_EQ(contents.status().code(), StatusCode::kIoError);
  EXPECT_NE(contents.status().message().find("checksum"), std::string::npos)
      << contents.status().message();

  // A service pointed at the flipped file refuses to restore from it and,
  // with no corpus to fall back to, stays cold and refuses reads.
  ServiceConfig config = FastService();
  config.checkpoint_path = path;
  PredictionService service(config);
  EXPECT_FALSE(service.StartFromCheckpoint().ok());
  const auto read = service.Predict(*observed_, 8);
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kUnavailable);
  std::remove(path.c_str());
}

TEST_F(ServeTest, NewerFormatVersionIsRejectedNotMisread) {
  // Older layouts are refused the same way: version 1 lacked three config
  // fields, version 2 still carried five that version 3 dropped, and
  // version 3 lacked the feature selection.
  static_assert(kCheckpointVersion == 4);
  const std::string path = TempPath("version.ckpt");
  const FeatureSelection selection = FittedSelection();
  for (const uint32_t version : {kCheckpointVersion + 1, 1u, 2u, 3u}) {
    ASSERT_TRUE(
        WriteCheckpoint(path, FastPipeline(), *corpus_, selection).ok());
    std::string bytes;
    {
      std::ifstream in(path, std::ios::binary);
      bytes.assign(std::istreambuf_iterator<char>(in),
                   std::istreambuf_iterator<char>());
    }
    bytes[8] = static_cast<char>(version);  // u32 LE version
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    }
    const auto contents = ReadCheckpoint(path);
    ASSERT_FALSE(contents.ok()) << "version " << version;
    EXPECT_EQ(contents.status().code(), StatusCode::kFailedPrecondition);
  }
  std::remove(path.c_str());
}

TEST_F(ServeTest, StartFallsBackToColdFitOnCorruptCheckpoint) {
  const std::string path = TempPath("fallback.ckpt");
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << "WPREDCKP garbage that is neither header nor payload";
  }
  ServiceConfig config = FastService();
  config.checkpoint_path = path;
  PredictionService service(config);
  ASSERT_TRUE(service.Start(*corpus_).ok());  // rejected ckpt → cold fit
  EXPECT_EQ(service.state(), ServingState::kServing);
  EXPECT_TRUE(service.Predict(*observed_, 8).ok());
  // The fallback fit re-checkpointed a good file over the corrupt one.
  EXPECT_TRUE(ReadCheckpoint(path).ok());
  std::remove(path.c_str());
}

TEST_F(ServeTest, PayloadDecodeRejectsGarbageWithoutCrashing) {
  const auto decoded = checkpoint_internal::DecodePayload("not a payload");
  EXPECT_FALSE(decoded.ok());
  const std::string payload = checkpoint_internal::EncodePayload(
      FastPipeline(), *corpus_, FittedSelection());
  EXPECT_TRUE(
      checkpoint_internal::DecodePayload(payload).ok());
  // Every strict prefix must fail cleanly (bounds-checked reader).
  for (size_t cut : {size_t{0}, size_t{1}, payload.size() / 3,
                     payload.size() - 1}) {
    EXPECT_FALSE(
        checkpoint_internal::DecodePayload(payload.substr(0, cut)).ok())
        << "prefix of " << cut << " bytes decoded";
  }
}

TEST_F(ServeTest, PayloadDecodeRejectsInconsistentSelection) {
  const FeatureSelection good = FittedSelection();
  FeatureSelection rank_zero = good;
  rank_zero.ranking.ranks[0] = 0;
  FeatureSelection short_scores = good;
  short_scores.ranking.scores.pop_back();
  FeatureSelection unranked_feature = good;
  unranked_feature.features.push_back(good.ranking.ranks.size());
  for (const FeatureSelection* bad :
       {&rank_zero, &short_scores, &unranked_feature}) {
    const auto decoded = checkpoint_internal::DecodePayload(
        checkpoint_internal::EncodePayload(FastPipeline(), *corpus_, *bad));
    ASSERT_FALSE(decoded.ok());
    EXPECT_EQ(decoded.status().code(), StatusCode::kIoError);
  }
}

// --- concurrency (runs under TSan in CI) ------------------------------------

// ServeTest's shared corpus under a separate suite name, so CI's TSan
// filter selects exactly these tests.
class ServeConcurrencyTest : public ServeTest {};

// Readers hammer the box while a writer publishes many epochs: every guard
// must see a fully constructed snapshot whose payload is internally
// consistent (no torn state), and epochs must never run backwards within a
// reader thread... the left-right invariants, empirically.
TEST_F(ServeConcurrencyTest, SnapshotBoxReadersNeverSeeTornState) {
  SnapshotBox box;
  constexpr uint64_t kEpochs = 400;
  constexpr int kReaders = 4;

  const auto make = [](uint64_t epoch) {
    auto snapshot = std::make_shared<FittedSnapshot>();
    snapshot->epoch = epoch;
    // Redundant copies of the epoch: a torn snapshot shows mixed values.
    snapshot->fit_seconds = static_cast<double>(epoch);
    snapshot->config.top_k = epoch;
    return snapshot;
  };

  box.Publish(make(1));
  std::atomic<bool> stop{false};
  std::atomic<int64_t> violations{0};
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&] {
      uint64_t last_seen = 0;
      while (!stop.load(std::memory_order_acquire)) {
        SnapshotBox::ReadGuard guard = box.Acquire();
        if (!guard) {
          violations.fetch_add(1);  // published box must never read null
          continue;
        }
        const uint64_t epoch = guard->epoch;
        if (guard->fit_seconds != static_cast<double>(epoch) ||
            guard->config.top_k != epoch || epoch < last_seen) {
          violations.fetch_add(1);
        }
        last_seen = epoch;
      }
    });
  }

  for (uint64_t epoch = 2; epoch <= kEpochs; ++epoch) box.Publish(make(epoch));
  stop.store(true, std::memory_order_release);
  for (auto& reader : readers) reader.join();
  EXPECT_EQ(violations, 0);
  EXPECT_EQ(box.CurrentEpoch(), kEpochs);
}

// Full-service version: concurrent Predicts during repeated refit publishes
// must always succeed and stay bit-identical to the snapshot's fit (the
// corpus never changes, so every epoch serves the same numbers).
TEST_F(ServeConcurrencyTest, PredictsStayCorrectAcrossConcurrentRefits) {
  const ExperimentCorpus& corpus = *corpus_;
  const Experiment& observed = *observed_;

  ServiceConfig config;
  config.pipeline.selector = "fANOVA";
  config.max_in_flight = 0;  // isolate the swap path from admission control
  PredictionService service(config);
  ASSERT_TRUE(service.Start(corpus).ok());
  const auto expected = service.Predict(observed, 8);
  ASSERT_TRUE(expected.ok());

  constexpr int kReaders = 4;
  constexpr int kRefits = 6;
  std::atomic<bool> stop{false};
  std::atomic<int64_t> violations{0};
  std::atomic<int64_t> reads{0};
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_acquire)) {
        const auto result = service.Predict(observed, 8);
        reads.fetch_add(1);
        if (!result.ok() ||
            result->throughput_tps != expected->throughput_tps ||
            result->reference_workload != expected->reference_workload) {
          violations.fetch_add(1);
        }
      }
    });
  }
  for (int i = 0; i < kRefits; ++i) {
    ASSERT_TRUE(service.RefitNow(corpus).ok());
  }
  stop.store(true, std::memory_order_release);
  for (auto& reader : readers) reader.join();

  EXPECT_EQ(violations, 0);
  EXPECT_GT(reads, 0);
  EXPECT_EQ(service.snapshot_epoch(), static_cast<uint64_t>(kRefits + 1));
  EXPECT_EQ(service.state(), ServingState::kServing);
}

// Readers hammer Predict while warm refits publish, alternating between A
// and B (A's workloads, another cold selection): every read is bit-equal to
// Pipeline{Fit(A)} or Pipeline{Fit(A); Refit(B)}, whichever was live.
TEST_F(ServeConcurrencyTest, PredictsStayCorrectAcrossWarmRefits) {
  Pipeline on_b(WarmPipeline());
  ASSERT_TRUE(on_b.Fit(*corpus_).ok());
  ASSERT_TRUE(on_b.Refit(*reseeded_).ok());
  const auto expected_b = on_b.PredictThroughput(*observed_, 8);
  ASSERT_TRUE(expected_b.ok());

  ServiceConfig config = FastService();
  config.pipeline = WarmPipeline();
  config.max_in_flight = 0;  // any refused read is a bug, not a shed
  PredictionService service(config);
  ASSERT_TRUE(service.Start(*corpus_).ok());
  const auto expected_a = service.Predict(*observed_, 8);
  ASSERT_TRUE(expected_a.ok());
  ASSERT_NE(std::bit_cast<uint64_t>(expected_a->throughput_tps),
            std::bit_cast<uint64_t>(expected_b->throughput_tps));

  const auto same_bits = [](const Pipeline::Prediction& a,
                            const Pipeline::Prediction& b) {
    return std::bit_cast<uint64_t>(a.throughput_tps) ==
               std::bit_cast<uint64_t>(b.throughput_tps) &&
           a.effective_features == b.effective_features;
  };
  constexpr int kReaders = 4;
  constexpr int kRefitPairs = 3;
  std::atomic<bool> stop{false};
  std::atomic<int64_t> violations{0};
  std::atomic<int64_t> reads{0};
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_acquire)) {
        const auto result = service.Predict(*observed_, 8);
        reads.fetch_add(1);
        if (!result.ok() || !(same_bits(*result, *expected_a) ||
                              same_bits(*result, *expected_b))) {
          violations.fetch_add(1);
        }
      }
    });
  }
  for (int i = 0; i < kRefitPairs; ++i) {
    ASSERT_TRUE(service.RefitNow(*reseeded_).ok());
    ASSERT_TRUE(service.RefitNow(*corpus_).ok());
  }
  stop.store(true, std::memory_order_release);
  for (auto& reader : readers) reader.join();

  EXPECT_EQ(violations, 0);
  EXPECT_GT(reads, 0);
  EXPECT_EQ(service.snapshot_epoch(),
            static_cast<uint64_t>(2 * kRefitPairs + 1));
  // Refitting A from its own selection reproduces the cold fit of A.
  const auto final_read = service.Predict(*observed_, 8);
  ASSERT_TRUE(final_read.ok());
  ExpectSameRead(*final_read, *expected_a);
}

// A background refit fails while readers hammer Predict: every read is
// served from the last good snapshot, the service reports degraded once the
// refit has failed, and the next successful refit restores it without
// changing the prediction (the corpus never changes).
TEST_F(ServeConcurrencyTest, ReadsSurviveFailedBackgroundRefit) {
  ServiceConfig config = FastService();
  config.max_in_flight = 0;  // any refused read is a bug, not a shed
  PredictionService service(config);
  ASSERT_TRUE(service.Start(*corpus_).ok());
  const auto expected = service.Predict(*observed_, 8);
  ASSERT_TRUE(expected.ok());

  service.set_refit_fault_hook(
      [] { return Status::IoError("injected: telemetry store down"); });
  constexpr int kReaders = 4;
  std::atomic<bool> stop{false};
  std::atomic<int64_t> violations{0};
  std::atomic<int64_t> reads{0};
  std::atomic<int> started{0};
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&] {
      bool first = true;
      while (!stop.load(std::memory_order_acquire)) {
        const auto result = service.Predict(*observed_, 8);
        reads.fetch_add(1);
        if (!result.ok() ||
            result->throughput_tps != expected->throughput_tps) {
          violations.fetch_add(1);
        }
        if (first) {
          started.fetch_add(1);
          first = false;
        }
      }
    });
  }
  // The failing refit ends within milliseconds: request it only once every
  // reader has served a read, so the readers overlap it.
  while (started.load() < kReaders) std::this_thread::yield();
  service.RequestRefit(*corpus_);
  service.WaitForRefits();
  stop.store(true, std::memory_order_release);
  for (auto& reader : readers) reader.join();

  EXPECT_EQ(violations, 0);
  EXPECT_GT(reads, 0);
  EXPECT_EQ(service.state(), ServingState::kDegraded);
  EXPECT_EQ(service.refit_failures(), 1u);
  EXPECT_EQ(service.snapshot_epoch(), 1u);

  service.set_refit_fault_hook(nullptr);
  ASSERT_TRUE(service.RefitNow(*corpus_).ok());
  EXPECT_EQ(service.state(), ServingState::kServing);
  const auto recovered = service.Predict(*observed_, 8);
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ(recovered->throughput_tps, expected->throughput_tps);
}

}  // namespace
}  // namespace wpred::serve
