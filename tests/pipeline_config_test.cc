// Parameterized integration sweep of the end-to-end pipeline over the
// representation x measure x context grid the paper evaluates: every
// combination must fit, identify a fresh run of a known workload, and
// produce a finite positive prediction. Also: failure-injection tests for
// the telemetry corner cases a production pipeline sees.

#include <cmath>

#include <gtest/gtest.h>

#include "core/pipeline.h"
#include "core/workbench.h"
#include "sim/hardware.h"

namespace wpred {
namespace {

struct PipelineVariant {
  std::string name;
  Representation representation;
  std::string measure;
  ModelContext context;
  std::string strategy;
};

class PipelineSweep : public ::testing::TestWithParam<PipelineVariant> {
 protected:
  static void SetUpTestSuite() {
    WorkbenchConfig config;
    config.workloads = {"TPC-C", "Twitter", "TPC-H"};
    config.skus = {MakeCpuSku(2), MakeCpuSku(8)};
    config.terminals = {8};
    config.runs = 2;
    config.sim.duration_s = 40.0;
    config.sim.sample_period_s = 0.5;
    corpus_ = new ExperimentCorpus(GenerateCorpus(config).value());
    observed_ = new Experiment(
        RunOne("TPC-C", MakeCpuSku(2), 8,
               /*run=*/5, SimConfig{.duration_s = 40.0, .sample_period_s = 0.5},
               /*base_seed=*/31415)
            .value());
  }
  static void TearDownTestSuite() {
    delete corpus_;
    delete observed_;
    corpus_ = nullptr;
    observed_ = nullptr;
  }

  static ExperimentCorpus* corpus_;
  static Experiment* observed_;
};

ExperimentCorpus* PipelineSweep::corpus_ = nullptr;
Experiment* PipelineSweep::observed_ = nullptr;

TEST_P(PipelineSweep, FitsIdentifiesAndPredicts) {
  const PipelineVariant& variant = GetParam();
  PipelineConfig config;
  config.selector = "fANOVA";  // fast, deterministic
  config.representation = variant.representation;
  config.measure = variant.measure;
  config.context = variant.context;
  config.strategy = variant.strategy;

  Pipeline pipeline(config);
  ASSERT_TRUE(pipeline.Fit(*corpus_).ok()) << variant.name;

  const auto ranked = pipeline.RankWorkloads(*observed_);
  ASSERT_TRUE(ranked.ok()) << variant.name;
  EXPECT_EQ(ranked->front().workload, "TPC-C") << variant.name;

  const auto prediction = pipeline.PredictThroughput(*observed_, 8);
  ASSERT_TRUE(prediction.ok())
      << variant.name << ": " << prediction.status().ToString();
  EXPECT_TRUE(std::isfinite(prediction->throughput_tps)) << variant.name;
  EXPECT_GT(prediction->throughput_tps, 0.0) << variant.name;
}

INSTANTIATE_TEST_SUITE_P(
    RepresentationMeasureGrid, PipelineSweep,
    ::testing::Values(
        PipelineVariant{"HistFp_L21_Pairwise_SVM", Representation::kHistFp,
                        "L2,1-Norm", ModelContext::kPairwise, "SVM"},
        PipelineVariant{"HistFp_Canb_Single_GB", Representation::kHistFp,
                        "Canb-Norm", ModelContext::kSingle, "GB"},
        PipelineVariant{"HistFp_Fro_Pairwise_Regression",
                        Representation::kHistFp, "Fro-Norm",
                        ModelContext::kPairwise, "Regression"},
        PipelineVariant{"PhaseFp_L11_Pairwise_MARS", Representation::kPhaseFp,
                        "L1,1-Norm", ModelContext::kPairwise, "MARS"},
        PipelineVariant{"PhaseFp_L21_Single_LMM", Representation::kPhaseFp,
                        "L2,1-Norm", ModelContext::kSingle, "LMM"},
        PipelineVariant{"Mts_Canb_Pairwise_SVM", Representation::kMts,
                        "Canb-Norm", ModelContext::kPairwise, "SVM"},
        PipelineVariant{"Mts_DepDtw_Pairwise_GB", Representation::kMts,
                        "Dependent-DTW", ModelContext::kPairwise, "GB"},
        PipelineVariant{"Mts_IndepLcss_Single_SVM", Representation::kMts,
                        "Independent-LCSS", ModelContext::kSingle, "SVM"}),
    [](const auto& info) { return info.param.name; });

// --- Failure injection ------------------------------------------------------

TEST(PipelineFailureTest, SingleSkuCorpusHasNoScalingModels) {
  WorkbenchConfig config;
  config.workloads = {"TPC-C", "Twitter"};
  config.skus = {MakeCpuSku(4)};  // only one SKU
  config.terminals = {8};
  config.runs = 2;
  config.sim.duration_s = 30.0;
  config.sim.sample_period_s = 0.5;
  const ExperimentCorpus corpus = GenerateCorpus(config).value();

  PipelineConfig pc;
  pc.selector = "fANOVA";
  Pipeline pipeline(pc);
  ASSERT_TRUE(pipeline.Fit(corpus).ok());  // similarity still works...
  const auto ranked = pipeline.RankWorkloads(corpus[0]);
  EXPECT_TRUE(ranked.ok());
  // ...but scaling prediction must surface NotFound, not crash.
  const auto prediction = pipeline.PredictThroughput(corpus[0], 8);
  ASSERT_FALSE(prediction.ok());
  EXPECT_EQ(prediction.status().code(), StatusCode::kNotFound);
}

TEST(PipelineFailureTest, ObservedWithoutResourceSamplesIsRejected) {
  WorkbenchConfig config;
  config.workloads = {"TPC-C", "Twitter"};
  config.skus = {MakeCpuSku(2), MakeCpuSku(8)};
  config.terminals = {8};
  config.runs = 2;
  config.sim.duration_s = 30.0;
  config.sim.sample_period_s = 0.5;
  const ExperimentCorpus corpus = GenerateCorpus(config).value();
  PipelineConfig pc;
  pc.selector = "fANOVA";
  Pipeline pipeline(pc);
  ASSERT_TRUE(pipeline.Fit(corpus).ok());

  Experiment broken = corpus[0];
  broken.resource.values = Matrix();
  EXPECT_FALSE(pipeline.RankWorkloads(broken).ok());
}

// --- Config validation ------------------------------------------------------

// Every out-of-range knob must surface as InvalidArgument naming the knob,
// both from Validate() directly and from Fit() (which calls it at entry).
TEST(PipelineConfigValidateTest, DefaultConfigIsValid) {
  EXPECT_TRUE(PipelineConfig{}.Validate().ok());
}

TEST(PipelineConfigValidateTest, RejectsOutOfRangeKnobs) {
  const auto expect_invalid = [](PipelineConfig config,
                                 const std::string& expect_substring) {
    const Status status = config.Validate();
    ASSERT_FALSE(status.ok()) << "expected rejection: " << expect_substring;
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
    EXPECT_NE(status.message().find(expect_substring), std::string::npos)
        << status.message();
  };

  PipelineConfig config;
  config.selector = "";
  expect_invalid(config, "selector");

  config = PipelineConfig{};
  config.measure = "";
  expect_invalid(config, "measure");

  config = PipelineConfig{};
  config.strategy = "";
  expect_invalid(config, "strategy");

  config = PipelineConfig{};
  config.top_k = 0;
  expect_invalid(config, "top_k");

  config = PipelineConfig{};
  config.subsamples = 0;
  expect_invalid(config, "subsamples");

  config = PipelineConfig{};
  config.num_threads = -4;
  expect_invalid(config, "num_threads");

  config = PipelineConfig{};
  config.similarity_sketch_bins = 1;
  expect_invalid(config, "similarity_sketch_bins");

  config = PipelineConfig{};
  config.similarity_sketch_bins = -1;
  expect_invalid(config, "similarity_sketch_bins");

  config = PipelineConfig{};
  config.quality.stuck_run_fraction = 0.0;
  expect_invalid(config, "stuck_run_fraction");

  config = PipelineConfig{};
  config.quality.stuck_run_fraction = 1.5;
  expect_invalid(config, "stuck_run_fraction");

  config = PipelineConfig{};
  config.quality.max_bad_fraction = -0.1;
  expect_invalid(config, "max_bad_fraction");

  config = PipelineConfig{};
  config.quality.min_samples = 1;
  expect_invalid(config, "min_samples");
}

TEST(PipelineConfigValidateTest, QualityKnobsIgnoredWhenGateDisabled) {
  PipelineConfig config;
  config.quality_gate = false;
  config.quality.stuck_run_fraction = -1.0;  // nonsense, but unused
  EXPECT_TRUE(config.Validate().ok());
}

TEST(PipelineConfigValidateTest, FitFailsFastOnInvalidConfig) {
  PipelineConfig config;
  config.num_threads = -1;
  Pipeline pipeline(config);
  const Status status = pipeline.Fit(ExperimentCorpus{});
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_FALSE(pipeline.fitted());
}

// --- Pre-Fit call audit -----------------------------------------------------

// Every Status-producing entry point called before Fit() must return a
// descriptive FailedPrecondition naming the method, and accessors must
// return empty defaults — never crash or serve garbage.
TEST(PipelinePreFitTest, EntryPointsReportFailedPrecondition) {
  Pipeline pipeline{PipelineConfig{}};
  Experiment observed;

  const auto expect_not_fitted = [](const Status& status,
                                    const std::string& method) {
    ASSERT_FALSE(status.ok()) << method;
    EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition) << method;
    EXPECT_NE(status.message().find(method), std::string::npos)
        << status.message();
    EXPECT_NE(status.message().find("Fit"), std::string::npos)
        << status.message();
  };

  expect_not_fitted(pipeline.RankWorkloads(observed).status(),
                    "RankWorkloads");
  expect_not_fitted(pipeline.NearestReferences(observed, 3).status(),
                    "NearestReferences");
  expect_not_fitted(pipeline.PredictThroughput(observed, 8).status(),
                    "PredictThroughput");
}

TEST(PipelinePreFitTest, AccessorsReturnEmptyDefaults) {
  Pipeline pipeline{PipelineConfig{}};
  EXPECT_FALSE(pipeline.fitted());
  EXPECT_TRUE(pipeline.selected_features().empty());
  EXPECT_TRUE(pipeline.reference_workloads().empty());
  EXPECT_TRUE(pipeline.fit_report().items.empty());
}

TEST(PipelinePreFitTest, NearestReferencesRejectsZeroK) {
  WorkbenchConfig config;
  config.workloads = {"TPC-C", "Twitter"};
  config.skus = {MakeCpuSku(2), MakeCpuSku(8)};
  config.terminals = {8};
  config.runs = 2;
  config.sim.duration_s = 30.0;
  config.sim.sample_period_s = 0.5;
  const ExperimentCorpus corpus = GenerateCorpus(config).value();
  PipelineConfig pc;
  pc.selector = "fANOVA";
  Pipeline pipeline(pc);
  ASSERT_TRUE(pipeline.Fit(corpus).ok());
  const auto result = pipeline.NearestReferences(corpus[0], 0);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(PipelineFailureTest, UnknownSelectorOrMeasureFailsFit) {
  WorkbenchConfig config;
  config.workloads = {"TPC-C", "Twitter"};
  config.skus = {MakeCpuSku(2), MakeCpuSku(8)};
  config.terminals = {8};
  config.runs = 2;
  config.sim.duration_s = 30.0;
  config.sim.sample_period_s = 0.5;
  const ExperimentCorpus corpus = GenerateCorpus(config).value();

  PipelineConfig bad_selector;
  bad_selector.selector = "nope";
  EXPECT_FALSE(Pipeline(bad_selector).Fit(corpus).ok());

  PipelineConfig bad_measure;
  bad_measure.selector = "fANOVA";
  bad_measure.measure = "nope";
  Pipeline pipeline(bad_measure);
  // The similarity engine validates the measure name up front, so a typo
  // fails Fit() instead of the first prediction.
  const Status fit_status = pipeline.Fit(corpus);
  EXPECT_FALSE(fit_status.ok());
  EXPECT_NE(fit_status.message().find("nope"), std::string::npos)
      << fit_status.message();
}

}  // namespace
}  // namespace wpred
