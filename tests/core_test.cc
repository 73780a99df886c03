#include <cmath>

#include <gtest/gtest.h>

#include "core/pipeline.h"
#include "core/workbench.h"
#include "linalg/stats.h"
#include "sim/hardware.h"
#include "telemetry/feature_catalog.h"
#include "telemetry/subsample.h"

namespace wpred {
namespace {

// Shared small corpus so the integration tests pay simulation cost once:
// TPC-C / Twitter / TPC-H on 2 and 8 CPUs, 2 runs, 40 simulated seconds.
class CoreTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    WorkbenchConfig config;
    config.workloads = {"TPC-C", "Twitter", "TPC-H"};
    config.skus = {MakeCpuSku(2), MakeCpuSku(8)};
    config.terminals = {8};
    config.runs = 2;
    config.sim.duration_s = 40.0;
    config.sim.sample_period_s = 0.5;
    auto corpus = GenerateCorpus(config);
    ASSERT_TRUE(corpus.ok()) << corpus.status().ToString();
    corpus_ = new ExperimentCorpus(std::move(corpus).value());
  }
  static void TearDownTestSuite() {
    delete corpus_;
    corpus_ = nullptr;
  }

  static ExperimentCorpus* corpus_;
};

ExperimentCorpus* CoreTest::corpus_ = nullptr;

TEST_F(CoreTest, GenerateCorpusGridShape) {
  // TPC-C: 2 skus x 1 terminal x 2 runs = 4; Twitter same = 4;
  // TPC-H serial: 2 skus x 2 runs = 4. Total 12.
  EXPECT_EQ(corpus_->size(), 12u);
  EXPECT_EQ(corpus_->WorkloadNames().size(), 3u);
  for (const Experiment& e : corpus_->experiments()) {
    EXPECT_EQ(e.resource.num_samples(), 80u);
    EXPECT_GT(e.perf.throughput_tps, 0.0);
    EXPECT_EQ(e.data_group, e.run_id % 3);
  }
}

TEST_F(CoreTest, GenerateCorpusIsDeterministic) {
  WorkbenchConfig config;
  config.workloads = {"Twitter"};
  config.skus = {MakeCpuSku(2)};
  config.terminals = {8};
  config.runs = 1;
  config.sim.duration_s = 20.0;
  const auto a = GenerateCorpus(config);
  const auto b = GenerateCorpus(config);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a.value()[0].resource.values, b.value()[0].resource.values);
}

TEST_F(CoreTest, GenerateCorpusRejectsEmptyGrid) {
  WorkbenchConfig config;
  EXPECT_FALSE(GenerateCorpus(config).ok());
}

TEST_F(CoreTest, AggregateObservationsShape) {
  const auto agg = BuildAggregateObservations(*corpus_, 10);
  ASSERT_TRUE(agg.ok());
  EXPECT_EQ(agg->x.rows(), corpus_->size() * 10);
  EXPECT_EQ(agg->x.cols(), kNumFeatures);
  EXPECT_EQ(agg->labels.size(), agg->x.rows());
  EXPECT_EQ(agg->workload_names.size(), 3u);
}

TEST_F(CoreTest, OneVsRestProblemHoldsOutTwinRuns) {
  const auto agg = BuildAggregateObservations(*corpus_, 10);
  ASSERT_TRUE(agg.ok());
  const std::vector<int> labels = corpus_->WorkloadLabels();
  // Experiment 0 is a TPC-C run; the corpus holds 4 TPC-C experiments
  // (2 SKUs x 2 runs), each contributing 10 rows.
  const auto problem = BuildOneVsRestProblem(agg.value(), labels, 0);
  ASSERT_TRUE(problem.ok());
  size_t positives = 0;
  for (int y : problem->y) positives += (y == 1);
  EXPECT_EQ(positives, 10u);  // only experiment 0's own rows
  // Other TPC-C runs held out: total rows = 120 - 3*10 (twins) = 90.
  EXPECT_EQ(problem->x.rows(), corpus_->size() * 10 - 3 * 10);
  EXPECT_EQ(problem->x.cols(), kNumFeatures);
  // Out-of-range experiment index errors.
  EXPECT_FALSE(BuildOneVsRestProblem(agg.value(), labels, 999).ok());
}

TEST_F(CoreTest, CollectScalingPointsMatchable) {
  const auto points = CollectScalingPoints(*corpus_, "TPC-C", 8, 10);
  ASSERT_TRUE(points.ok());
  EXPECT_EQ(points->size(), 2u * 2u * 10u);  // skus x runs x subsamples
  const auto matched = MatchAcrossSkus(points.value(), 2.0, 8.0);
  EXPECT_EQ(matched.size(), 2u * 10u);
  EXPECT_FALSE(CollectScalingPoints(*corpus_, "YCSB", 8, 10).ok());
}

// Each point's throughput is the run's, scaled by its systematic
// sub-experiment's mean activity over the run's: the same bits as reading
// that mean off the sub-experiment SystematicSubsample builds.
TEST_F(CoreTest, CollectScalingPointsFollowSubExperimentActivity) {
  const auto points = CollectScalingPoints(*corpus_, "Twitter", 8, 10);
  ASSERT_TRUE(points.ok());
  const size_t cpu = IndexOf(FeatureId::kCpuEffective);
  size_t next = 0;
  for (const Experiment& e : corpus_->experiments()) {
    if (e.workload != "Twitter") continue;
    const auto subs = SystematicSubsample(e, 10);
    ASSERT_TRUE(subs.ok());
    const double full_mean = Mean(e.resource.values.Col(cpu)) + 1e-9;
    for (size_t s = 0; s < subs->size(); ++s, ++next) {
      ASSERT_LT(next, points->size());
      const double factor =
          (Mean((*subs)[s].resource.values.Col(cpu)) + 1e-9) / full_mean;
      EXPECT_EQ((*points)[next].perf, e.perf.throughput_tps * factor);
      EXPECT_EQ((*points)[next].sample_id, static_cast<int>(s));
    }
  }
  EXPECT_EQ(next, points->size());
}

TEST_F(CoreTest, PipelineFitSelectsFeaturesAndModels) {
  PipelineConfig config;
  config.selector = "fANOVA";  // fast filter for the integration test
  Pipeline pipeline(config);
  ASSERT_TRUE(pipeline.Fit(*corpus_).ok());
  EXPECT_TRUE(pipeline.fitted());
  EXPECT_EQ(pipeline.selected_features().size(), 7u);
}

TEST_F(CoreTest, PipelineIdentifiesOwnWorkload) {
  PipelineConfig config;
  config.selector = "fANOVA";
  Pipeline pipeline(config);
  ASSERT_TRUE(pipeline.Fit(*corpus_).ok());
  // A fresh TPC-C run (different seed) must rank TPC-C first.
  const auto observed =
      RunOne("TPC-C", MakeCpuSku(2), 8, 7, SimConfig{.duration_s = 40.0,
                                                     .sample_period_s = 0.5},
             999);
  ASSERT_TRUE(observed.ok());
  const auto ranked = pipeline.RankWorkloads(observed.value());
  ASSERT_TRUE(ranked.ok());
  EXPECT_EQ(ranked->front().workload, "TPC-C");
}

TEST_F(CoreTest, PipelineEndToEndPredictionIsReasonable) {
  PipelineConfig config;
  config.selector = "fANOVA";
  Pipeline pipeline(config);
  ASSERT_TRUE(pipeline.Fit(*corpus_).ok());

  const SimConfig sim{.duration_s = 40.0, .sample_period_s = 0.5};
  const auto observed = RunOne("TPC-C", MakeCpuSku(2), 8, 9, sim, 555);
  const auto truth = RunOne("TPC-C", MakeCpuSku(8), 8, 9, sim, 555);
  ASSERT_TRUE(observed.ok());
  ASSERT_TRUE(truth.ok());

  const auto prediction = pipeline.PredictThroughput(observed.value(), 8);
  ASSERT_TRUE(prediction.ok()) << prediction.status().ToString();
  EXPECT_EQ(prediction->reference_workload, "TPC-C");
  const double actual = truth->perf.throughput_tps;
  EXPECT_NEAR(prediction->throughput_tps, actual, 0.35 * actual);
}

TEST_F(CoreTest, PipelineRejectsUseBeforeFit) {
  Pipeline pipeline(PipelineConfig{});
  EXPECT_FALSE(pipeline.PredictThroughput((*corpus_)[0], 8).ok());
  EXPECT_FALSE(pipeline.RankWorkloads((*corpus_)[0]).ok());
}

TEST_F(CoreTest, RankWorkloadsBreaksTiedDistancesDeterministically) {
  // Duplicate the corpus under two workload names that sort differently
  // than their insertion order: every "b-clone" experiment is bit-identical
  // to an "a-clone" one, so the two workloads' mean distances tie exactly
  // and the ranking must fall back to the workload-name tie-break.
  ExperimentCorpus duplicated;
  for (const Experiment& e : corpus_->experiments()) {
    Experiment clone_b = e;
    clone_b.workload = "b-clone";
    Experiment clone_a = e;
    clone_a.workload = "a-clone";
    duplicated.Add(std::move(clone_b));
    duplicated.Add(std::move(clone_a));
  }
  PipelineConfig config;
  config.selector = "fANOVA";
  Pipeline pipeline(config);
  ASSERT_TRUE(pipeline.Fit(duplicated).ok());
  const auto ranked = pipeline.RankWorkloads((*corpus_)[0]);
  ASSERT_TRUE(ranked.ok()) << ranked.status().ToString();
  ASSERT_EQ(ranked->size(), 2u);
  EXPECT_EQ((*ranked)[0].mean_distance, (*ranked)[1].mean_distance);
  EXPECT_EQ((*ranked)[0].workload, "a-clone");
  EXPECT_EQ((*ranked)[1].workload, "b-clone");
}

TEST_F(CoreTest, NearestReferencesMatchesWorkloadRanking) {
  PipelineConfig config;
  config.selector = "fANOVA";
  Pipeline pipeline(config);
  ASSERT_TRUE(pipeline.Fit(*corpus_).ok());
  const auto observed =
      RunOne("TPC-C", MakeCpuSku(2), 8, 7, SimConfig{.duration_s = 40.0,
                                                     .sample_period_s = 0.5},
             999);
  ASSERT_TRUE(observed.ok());
  const auto neighbors = pipeline.NearestReferences(observed.value(), 3);
  ASSERT_TRUE(neighbors.ok()) << neighbors.status().ToString();
  ASSERT_EQ(neighbors->size(), 3u);
  // Ascending by (distance, index), and the nearest reference should come
  // from the workload RankWorkloads puts first.
  for (size_t i = 0; i + 1 < neighbors->size(); ++i) {
    const Neighbor& a = (*neighbors)[i];
    const Neighbor& b = (*neighbors)[i + 1];
    EXPECT_TRUE(a.distance < b.distance ||
                (a.distance == b.distance && a.index < b.index));
  }
  const auto ranked = pipeline.RankWorkloads(observed.value());
  ASSERT_TRUE(ranked.ok());
  const std::vector<std::string>& workloads = pipeline.reference_workloads();
  ASSERT_LT(neighbors->front().index, workloads.size());
  EXPECT_EQ(workloads[neighbors->front().index], ranked->front().workload);
}

TEST_F(CoreTest, PipelineMtsConfigRestrictsToResourceFeatures) {
  PipelineConfig config;
  config.selector = "fANOVA";
  config.representation = Representation::kMts;
  config.measure = "Canb-Norm";
  Pipeline pipeline(config);
  ASSERT_TRUE(pipeline.Fit(*corpus_).ok());
  for (size_t f : pipeline.selected_features()) {
    EXPECT_LT(f, kNumResourceFeatures);
  }
}

}  // namespace
}  // namespace wpred
