#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/pipeline.h"
#include "core/workbench.h"
#include "linalg/stats.h"
#include "obs/metrics.h"
#include "reference_kernels.h"
#include "sim/hardware.h"
#include "similarity/measures.h"
#include "similarity/representation.h"
#include "telemetry/faults.h"
#include "telemetry/io.h"
#include "telemetry/quality.h"

namespace wpred {
namespace {

// Shared small corpus so the fault/quality integration tests pay simulation
// cost once: TPC-C / Twitter / TPC-H on 2 and 8 CPUs, 2 runs, 40 s.
class QualityTest : public ::testing::Test {
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

  static Experiment Sample() { return (*corpus_)[0]; }

  static ExperimentCorpus* corpus_;
};

ExperimentCorpus* QualityTest::corpus_ = nullptr;

// --- fault library ----------------------------------------------------------

TEST_F(QualityTest, FaultInjectionIsDeterministic) {
  const std::vector<FaultSpec> faults = {FaultSpec::Noise(0.2),
                                         FaultSpec::DropSamples(0.1, 0.3)};
  const auto a = CorruptCorpus(*corpus_, faults, 42);
  const auto b = CorruptCorpus(*corpus_, faults, 42);
  const auto c = CorruptCorpus(*corpus_, faults, 43);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_TRUE(c.ok());
  for (size_t i = 0; i < corpus_->size(); ++i) {
    EXPECT_EQ((*a)[i].resource.values, (*b)[i].resource.values);
  }
  EXPECT_NE((*a)[0].resource.values, (*c)[0].resource.values);
  // The clean corpus is untouched (corruption copies).
  EXPECT_NE((*a)[0].resource.values, (*corpus_)[0].resource.values);
}

TEST_F(QualityTest, SensorDropoutKillsExactlyOneColumn) {
  Experiment e = Sample();
  Rng rng(7);
  ASSERT_TRUE(ApplyFault(FaultSpec::SensorDropout(3), e, rng).ok());
  for (size_t r = 0; r < e.resource.num_samples(); ++r) {
    EXPECT_TRUE(std::isnan(e.resource.values(r, 3)));
    EXPECT_EQ(e.resource.values(r, 0), Sample().resource.values(r, 0));
  }
}

TEST_F(QualityTest, StuckSensorFreezesTrailingFraction) {
  Experiment e = Sample();
  Rng rng(7);
  ASSERT_TRUE(ApplyFault(FaultSpec::StuckSensor(0.5, 2), e, rng).ok());
  const size_t n = e.resource.num_samples();
  const double frozen = e.resource.values(n - 1, 2);
  for (size_t r = n / 2; r < n; ++r) {
    EXPECT_EQ(e.resource.values(r, 2), frozen);
  }
}

TEST_F(QualityTest, SampleCountFaultsChangeLength) {
  Rng rng(7);
  Experiment dropped = Sample();
  ASSERT_TRUE(ApplyFault(FaultSpec::DropSamples(0.25), dropped, rng).ok());
  EXPECT_LT(dropped.resource.num_samples(), Sample().resource.num_samples());

  Experiment duplicated = Sample();
  ASSERT_TRUE(
      ApplyFault(FaultSpec::DuplicateSamples(0.25), duplicated, rng).ok());
  EXPECT_GT(duplicated.resource.num_samples(), Sample().resource.num_samples());

  Experiment truncated = Sample();
  ASSERT_TRUE(ApplyFault(FaultSpec::TruncateRun(0.3), truncated, rng).ok());
  EXPECT_EQ(truncated.resource.num_samples(),
            static_cast<size_t>(0.3 * Sample().resource.num_samples()));
}

TEST_F(QualityTest, OutOfOrderPreservesValueMultiset) {
  Experiment e = Sample();
  Rng rng(7);
  ASSERT_TRUE(ApplyFault(FaultSpec::OutOfOrderSamples(0.2), e, rng).ok());
  Vector before = Sample().resource.values.data();
  Vector after = e.resource.values.data();
  std::sort(before.begin(), before.end());
  std::sort(after.begin(), after.end());
  EXPECT_EQ(before, after);
  EXPECT_NE(e.resource.values, Sample().resource.values);
}

TEST_F(QualityTest, FaultValidationRejectsBadKnobs) {
  Experiment e = Sample();
  Rng rng(7);
  EXPECT_EQ(ApplyFault(FaultSpec::DropSamples(1.5), e, rng).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ApplyFault(FaultSpec::SensorDropout(99), e, rng).code(),
            StatusCode::kInvalidArgument);
  Experiment tiny = Sample();
  tiny.resource.values = Matrix(1, kNumResourceFeatures);
  EXPECT_EQ(ApplyFault(FaultSpec::Noise(0.1), tiny, rng).code(),
            StatusCode::kFailedPrecondition);
}

TEST_F(QualityTest, FaultSpecNamesAreStable) {
  EXPECT_EQ(FaultSpec::Noise(0.1).ToString(), "noise(sigma=0.10)");
  EXPECT_EQ(FaultSpec::SensorDropout(3).ToString(),
            "sensor-dropout(feature=3)");
  EXPECT_EQ(FaultSpec::DropSamples(0.2, 0.5).ToString(),
            "drop-samples(frac=0.20-0.50)");
}

// --- data-quality gate ------------------------------------------------------

TEST_F(QualityTest, CleanTelemetryPassesUntouched) {
  Experiment e = Sample();
  const DataQualityReport analyzed = AnalyzeExperiment(e);
  EXPECT_TRUE(analyzed.clean()) << analyzed.Summary();
  EXPECT_EQ(analyzed.Summary(), "clean");

  const auto repaired = RepairExperiment(e);
  ASSERT_TRUE(repaired.ok());
  EXPECT_TRUE(repaired->clean());
  EXPECT_EQ(e.resource.values, Sample().resource.values);  // bit identical
}

TEST_F(QualityTest, RepairInterpolatesNaNGaps) {
  Experiment e = Sample();
  const size_t n = e.resource.num_samples();
  // Interior gap + leading and trailing holes in feature 1.
  e.resource.values(0, 1) = std::nan("");
  e.resource.values(n / 2, 1) = std::nan("");
  e.resource.values(n / 2 + 1, 1) = std::nan("");
  e.resource.values(n - 1, 1) = std::numeric_limits<double>::infinity();

  const auto report = RepairExperiment(e);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->features[1].nan_count, 3u);
  EXPECT_EQ(report->features[1].inf_count, 1u);
  EXPECT_TRUE(report->features[1].repaired);
  EXPECT_FALSE(report->features[1].dead);
  for (size_t r = 0; r < n; ++r) {
    EXPECT_TRUE(std::isfinite(e.resource.values(r, 1))) << r;
  }
  // Interior gap is the linear blend of its finite neighbours.
  const double lo = e.resource.values(n / 2 - 1, 1);
  const double hi = e.resource.values(n / 2 + 2, 1);
  EXPECT_NEAR(e.resource.values(n / 2, 1), lo + (hi - lo) / 3.0, 1e-12);
}

TEST_F(QualityTest, DeadFeatureIsDroppedNotFabricated) {
  Experiment e = Sample();
  Rng rng(7);
  ASSERT_TRUE(ApplyFault(FaultSpec::SensorDropout(4), e, rng).ok());
  const auto report = RepairExperiment(e);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->features[4].dead);
  EXPECT_TRUE(report->features[4].dropped);
  EXPECT_FALSE(report->features[4].usable());
  EXPECT_EQ(report->UnusableFeatures(), std::vector<size_t>{4});
  for (size_t r = 0; r < e.resource.num_samples(); ++r) {
    EXPECT_EQ(e.resource.values(r, 4), 0.0);
  }
}

TEST_F(QualityTest, StuckSensorIsDetected) {
  Experiment e = Sample();
  Rng rng(7);
  ASSERT_TRUE(ApplyFault(FaultSpec::StuckSensor(0.8, 0), e, rng).ok());
  const DataQualityReport report = AnalyzeExperiment(e);
  EXPECT_TRUE(report.features[0].stuck);
  EXPECT_FALSE(report.features[0].usable());
  // All-zero columns are idle sensors, not stuck ones.
  Experiment idle = Sample();
  for (size_t r = 0; r < idle.resource.num_samples(); ++r) {
    idle.resource.values(r, 6) = 0.0;
  }
  EXPECT_FALSE(AnalyzeExperiment(idle).features[6].stuck);
}

TEST_F(QualityTest, BeyondRepairStatusesArePrecise) {
  // Too few samples.
  Experiment tiny = Sample();
  tiny.resource.values = Matrix(3, kNumResourceFeatures, 1.0);
  EXPECT_EQ(RepairExperiment(tiny).status().code(),
            StatusCode::kFailedPrecondition);

  // Corrupt prediction target.
  Experiment bad_perf = Sample();
  bad_perf.perf.throughput_tps = std::nan("");
  EXPECT_EQ(RepairExperiment(bad_perf).status().code(),
            StatusCode::kNumericalError);

  // More dead features than the policy tolerates.
  Experiment many_dead = Sample();
  Rng rng(7);
  for (int f = 0; f < 5; ++f) {
    ASSERT_TRUE(
        ApplyFault(FaultSpec::SensorDropout(f), many_dead, rng).ok());
  }
  EXPECT_EQ(RepairExperiment(many_dead).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST_F(QualityTest, OutliersPassThroughUnclamped) {
  // Legitimate bursts (IO spikes) must survive the gate: finite samples are
  // never rewritten, however far they sit from the rest of the column.
  Experiment e = Sample();
  Rng rng(7);
  ASSERT_TRUE(ApplyFault(FaultSpec::Outliers(0.05, 1000.0), e, rng).ok());
  const Matrix spiked = e.resource.values;
  const auto report = RepairExperiment(e);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->clean()) << report->Summary();
  EXPECT_EQ(Max(e.resource.values.Col(0)), Max(spiked.Col(0)));
  EXPECT_TRUE(std::equal(e.resource.values.data().begin(),
                         e.resource.values.data().end(),
                         spiked.data().begin()));
}

// --- copy-free screen --------------------------------------------------------

bool SameBits(const Matrix& a, const Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::equal(a.data().begin(), a.data().end(), b.data().begin(),
                    [](double x, double y) {
                      return std::bit_cast<uint64_t>(x) ==
                             std::bit_cast<uint64_t>(y);
                    });
}

// The screen's contract, read off the whole-experiment gate: RepairExperiment
// on a copy succeeds, leaves every resource and plan double bit-unchanged,
// and reports none of `features` unusable.
bool GateLeavesUntouched(const Experiment& e, const QualityPolicy& policy,
                         const std::vector<size_t>& features) {
  Experiment copy = e;
  const Result<DataQualityReport> report = RepairExperiment(copy, policy);
  if (!report.ok()) return false;
  if (!SameBits(copy.resource.values, e.resource.values) ||
      !SameBits(copy.plans.values, e.plans.values)) {
    return false;
  }
  for (size_t f : report->UnusableFeatures()) {
    if (std::find(features.begin(), features.end(), f) != features.end()) {
      return false;
    }
  }
  return true;
}

// Feature sets to screen for: the paper's top-7 (one resource column among
// six plan columns) and every resource column.
const std::vector<std::vector<size_t>>& ScreenFeatureSets() {
  static const auto* sets = new std::vector<std::vector<size_t>>{
      {14, 4, 20, 10, 26, 15, 21}, {0, 1, 2, 3, 4, 5, 6}};
  return *sets;
}

TEST_F(QualityTest, ScreenPassesCleanRunsAndDeclinesEveryWritingFault) {
  const SimConfig sim{.duration_s = 40.0, .sample_period_s = 0.5};
  const QualityPolicy policy;
  for (const char* workload :
       {"TPC-C", "TPC-H", "TPC-DS", "Twitter", "YCSB", "PW"}) {
    SCOPED_TRACE(workload);
    const Experiment clean =
        RunOne(workload, MakeCpuSku(2), 8, 0, sim, 4242).value();
    for (const std::vector<size_t>& features : ScreenFeatureSets()) {
      // The fast path is taken on clean telemetry.
      EXPECT_TRUE(PassesUntouched(clean, policy, features));
      EXPECT_TRUE(GateLeavesUntouched(clean, policy, features));
    }
    // With the default policy the screen is exact: it declines precisely
    // when the gate would fail, write, or flag a screened feature.
    for (int c = 0; c < static_cast<int>(kNumResourceFeatures); ++c) {
      for (const FaultSpec& spec :
           {FaultSpec::Noise(0.1), FaultSpec::Outliers(0.05, 10.0),
            FaultSpec::DropSamples(0.2), FaultSpec::SensorDropout(c),
            FaultSpec::StuckSensor(0.6, c), FaultSpec::DuplicateSamples(0.1),
            FaultSpec::OutOfOrderSamples(0.1), FaultSpec::TruncateRun(0.05)}) {
        SCOPED_TRACE(spec.ToString());
        Experiment faulted = clean;
        Rng rng(100 + static_cast<uint64_t>(c));
        ASSERT_TRUE(ApplyFault(spec, faulted, rng).ok());
        for (const std::vector<size_t>& features : ScreenFeatureSets()) {
          EXPECT_EQ(PassesUntouched(faulted, policy, features),
                    GateLeavesUntouched(faulted, policy, features));
        }
      }
    }
  }
}

TEST_F(QualityTest, ScreenDeclinesWhateverTheGateWouldWriteOrRefuse) {
  const QualityPolicy policy;
  std::vector<Experiment> declined;
  for (double bad : {std::nan(""), HUGE_VAL, -HUGE_VAL}) {
    Experiment plan = Sample();
    plan.plans.values(0, 3) = bad;
    declined.push_back(plan);
    Experiment resource = Sample();
    resource.resource.values(7, 4) = bad;
    declined.push_back(resource);
  }
  Experiment throughput = Sample();
  throughput.perf.throughput_tps = std::nan("");
  declined.push_back(throughput);
  Experiment latency = Sample();
  latency.perf.mean_latency_ms = HUGE_VAL;
  declined.push_back(latency);
  Experiment short_run = Sample();
  short_run.resource.values =
      short_run.resource.values.SelectRows({0, 1, 2, 3, 4});  // < 8 samples
  declined.push_back(short_run);
  for (size_t i = 0; i < declined.size(); ++i) {
    SCOPED_TRACE(i);
    for (const std::vector<size_t>& features : ScreenFeatureSets()) {
      EXPECT_FALSE(PassesUntouched(declined[i], policy, features));
      EXPECT_FALSE(GateLeavesUntouched(declined[i], policy, features));
    }
  }

  // An idle all-zero column is neither dead nor stuck: the screen passes.
  Experiment idle = Sample();
  for (size_t r = 0; r < idle.resource.num_samples(); ++r) {
    idle.resource.values(r, 4) = 0.0;
  }
  for (const std::vector<size_t>& features : ScreenFeatureSets()) {
    EXPECT_TRUE(PassesUntouched(idle, policy, features));
    EXPECT_TRUE(GateLeavesUntouched(idle, policy, features));
  }

  // A stuck column blocks the screen only when it is screened for.
  Experiment stuck = Sample();
  Rng rng(7);
  ASSERT_TRUE(ApplyFault(FaultSpec::StuckSensor(0.8, 0), stuck, rng).ok());
  EXPECT_TRUE(PassesUntouched(stuck, policy, ScreenFeatureSets()[0]));
  EXPECT_FALSE(PassesUntouched(stuck, policy, ScreenFeatureSets()[1]));

  // A missing column is not the catalog's: the screen declines it without
  // asking why.
  Experiment narrow = Sample();
  narrow.resource.values = narrow.resource.values.SelectCols({0, 1});
  EXPECT_FALSE(PassesUntouched(narrow, policy, ScreenFeatureSets()[0]));
}

TEST_F(QualityTest, GateCorpusQuarantinesOnlyTheUnrepairable) {
  ExperimentCorpus dirty = *corpus_;
  Rng rng(7);
  // Experiment 0: repairable (one dead sensor). Experiment 1: hopeless.
  ASSERT_TRUE(ApplyFault(FaultSpec::SensorDropout(2), dirty[0], rng).ok());
  dirty[1].perf.throughput_tps = std::nan("");

  CorpusQualityReport report;
  const auto kept = GateCorpus(dirty, QualityPolicy{}, &report);
  ASSERT_TRUE(kept.ok());
  EXPECT_EQ(kept->size(), dirty.size() - 1);
  EXPECT_EQ(report.items.size(), dirty.size());
  ASSERT_EQ(report.quarantined.size(), 1u);
  EXPECT_EQ(report.quarantined[0], 1u);
  EXPECT_EQ(report.items[1].status.code(), StatusCode::kNumericalError);
  EXPECT_TRUE(report.items[0].status.ok());
  EXPECT_TRUE(report.items[0].report.features[2].dropped);
  EXPECT_NE(report.Summary().find("kept"), std::string::npos);
}

// --- pipeline graceful degradation -----------------------------------------

PipelineConfig FastMtsConfig() {
  PipelineConfig config;
  config.selector = "fANOVA";
  config.representation = Representation::kMts;  // resource features only,
  config.measure = "Canb-Norm";  // so sensor faults always hit the selection
  config.top_k = 4;  // leave unselected resource features as substitutes
  return config;
}

// A resource matrix of the wrong width cannot be repaired. The gate
// quarantines it with InvalidArgument, and a gated fit goes on without it.
TEST_F(QualityTest, GateQuarantinesWrongResourceWidth) {
  ExperimentCorpus dirty = *corpus_;
  dirty[0].resource.values = dirty[0].resource.values.SelectCols({0, 1});
  Experiment wide = Sample();
  wide.resource.values =
      wide.resource.values.SelectCols({0, 1, 2, 3, 4, 5, 6, 6});
  for (Experiment e : {dirty[0], wide}) {
    const auto repaired = RepairExperiment(e);
    ASSERT_FALSE(repaired.ok());
    EXPECT_EQ(repaired.status().code(), StatusCode::kInvalidArgument);
  }

  CorpusQualityReport report;
  const auto kept = GateCorpus(dirty, QualityPolicy{}, &report);
  ASSERT_TRUE(kept.ok());
  EXPECT_EQ(kept->size(), dirty.size() - 1);
  ASSERT_EQ(report.quarantined, std::vector<size_t>{0});
  EXPECT_EQ(report.items[0].status.code(), StatusCode::kInvalidArgument);

  Pipeline pipeline(FastMtsConfig());
  ASSERT_TRUE(pipeline.Fit(dirty).ok());
  EXPECT_EQ(pipeline.fit_report().quarantined, std::vector<size_t>{0});
}

// Ungated, nothing can quarantine it: Fit rejects the corpus with a Status
// instead of aborting the process.
TEST_F(QualityTest, UngatedFitRejectsWrongResourceWidth) {
  ExperimentCorpus dirty = *corpus_;
  dirty[3].resource.values = dirty[3].resource.values.SelectCols({0, 1});
  PipelineConfig config = FastMtsConfig();
  config.quality_gate = false;
  Pipeline pipeline(config);
  const Status status = pipeline.Fit(dirty);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << status.ToString();
  EXPECT_FALSE(pipeline.fitted());
}

TEST_F(QualityTest, FitSurvivesDirtyCorpusAndReportsQuarantine) {
  ExperimentCorpus dirty = *corpus_;
  Rng rng(7);
  ASSERT_TRUE(ApplyFault(FaultSpec::SensorDropout(1), dirty[0], rng).ok());
  dirty[2].perf.throughput_tps = std::nan("");

  PipelineConfig config;
  config.selector = "fANOVA";
  Pipeline pipeline(config);
  ASSERT_TRUE(pipeline.Fit(dirty).ok());
  EXPECT_TRUE(pipeline.fitted());
  EXPECT_EQ(pipeline.fit_report().items.size(), dirty.size());
  ASSERT_EQ(pipeline.fit_report().quarantined.size(), 1u);
  EXPECT_EQ(pipeline.fit_report().quarantined[0], 2u);
}

TEST_F(QualityTest, PredictFallsBackWhenSelectedFeatureDies) {
  Pipeline pipeline(FastMtsConfig());
  ASSERT_TRUE(pipeline.Fit(*corpus_).ok());
  ASSERT_FALSE(pipeline.selected_features().empty());
  const size_t top = pipeline.selected_features().front();

  const SimConfig sim{.duration_s = 40.0, .sample_period_s = 0.5};
  Experiment observed = RunOne("TPC-C", MakeCpuSku(2), 8, 9, sim, 555).value();
  const auto clean_prediction = pipeline.PredictThroughput(observed, 8);
  ASSERT_TRUE(clean_prediction.ok());
  EXPECT_FALSE(clean_prediction->degraded);

  Rng rng(7);
  ASSERT_TRUE(
      ApplyFault(FaultSpec::SensorDropout(static_cast<int>(top)), observed,
                 rng)
          .ok());
  const auto prediction = pipeline.PredictThroughput(observed, 8);
  ASSERT_TRUE(prediction.ok()) << prediction.status().ToString();
  EXPECT_TRUE(prediction->degraded);
  EXPECT_TRUE(std::isfinite(prediction->throughput_tps));
  EXPECT_GT(prediction->throughput_tps, 0.0);
  // The dead feature is not in the effective set; a substitute refilled it.
  EXPECT_EQ(std::count(prediction->effective_features.begin(),
                       prediction->effective_features.end(), top),
            0);
  EXPECT_EQ(prediction->effective_features.size(),
            pipeline.selected_features().size());
}

TEST_F(QualityTest, PredictRefusesWhenTelemetryIsBeyondRepair) {
  Pipeline pipeline(FastMtsConfig());
  ASSERT_TRUE(pipeline.Fit(*corpus_).ok());

  const SimConfig sim{.duration_s = 40.0, .sample_period_s = 0.5};
  Experiment observed = RunOne("TPC-C", MakeCpuSku(2), 8, 9, sim, 555).value();
  Rng rng(7);
  for (size_t f = 0; f < kNumResourceFeatures; ++f) {
    ASSERT_TRUE(ApplyFault(FaultSpec::SensorDropout(static_cast<int>(f)),
                           observed, rng)
                    .ok());
  }
  const auto prediction = pipeline.PredictThroughput(observed, 8);
  ASSERT_FALSE(prediction.ok());
  EXPECT_EQ(prediction.status().code(), StatusCode::kFailedPrecondition);
}

TEST_F(QualityTest, PredictRejectsCorruptObservedThroughput) {
  Pipeline pipeline(FastMtsConfig());
  ASSERT_TRUE(pipeline.Fit(*corpus_).ok());
  Experiment observed = Sample();
  observed.perf.throughput_tps = std::nan("");
  const auto prediction = pipeline.PredictThroughput(observed, 8);
  ASSERT_FALSE(prediction.ok());
  EXPECT_EQ(prediction.status().code(), StatusCode::kNumericalError);
}

TEST_F(QualityTest, RankingSurvivesRepairableNoise) {
  PipelineConfig config;
  config.selector = "fANOVA";
  Pipeline pipeline(config);
  ASSERT_TRUE(pipeline.Fit(*corpus_).ok());

  const SimConfig sim{.duration_s = 40.0, .sample_period_s = 0.5};
  Experiment observed = RunOne("TPC-C", MakeCpuSku(2), 8, 7, sim, 999).value();
  Rng rng(7);
  ASSERT_TRUE(ApplyFaults({FaultSpec::Noise(0.10)}, observed, rng).ok());
  // Poke a few NaN holes on top: the gate interpolates them away.
  observed.resource.values(3, 0) = std::nan("");
  observed.resource.values(9, 5) = std::nan("");
  const auto ranked = pipeline.RankWorkloads(observed);
  ASSERT_TRUE(ranked.ok()) << ranked.status().ToString();
  EXPECT_EQ(ranked->front().workload, "TPC-C");
}

// --- the read path reads only the selected features -------------------------

// Every read the pipeline serves for one observation.
struct Reads {
  Pipeline::Prediction prediction;
  std::vector<Pipeline::WorkloadDistance> ranked;
  std::vector<Neighbor> neighbors;
};

Reads ReadAll(const Pipeline& pipeline, const Experiment& observed) {
  Reads reads;
  auto prediction = pipeline.PredictThroughput(observed, 8);
  EXPECT_TRUE(prediction.ok()) << prediction.status().ToString();
  if (prediction.ok()) reads.prediction = std::move(prediction).value();
  auto ranked = pipeline.RankWorkloads(observed);
  EXPECT_TRUE(ranked.ok()) << ranked.status().ToString();
  if (ranked.ok()) reads.ranked = std::move(ranked).value();
  auto neighbors = pipeline.NearestReferences(observed, 3);
  EXPECT_TRUE(neighbors.ok()) << neighbors.status().ToString();
  if (neighbors.ok()) reads.neighbors = std::move(neighbors).value();
  return reads;
}

void ExpectSameReads(const Reads& a, const Reads& b) {
  EXPECT_EQ(std::bit_cast<uint64_t>(a.prediction.throughput_tps),
            std::bit_cast<uint64_t>(b.prediction.throughput_tps));
  EXPECT_EQ(std::bit_cast<uint64_t>(a.prediction.similarity_distance),
            std::bit_cast<uint64_t>(b.prediction.similarity_distance));
  EXPECT_EQ(a.prediction.reference_workload, b.prediction.reference_workload);
  EXPECT_EQ(a.prediction.degraded, b.prediction.degraded);
  EXPECT_EQ(a.prediction.effective_features, b.prediction.effective_features);
  ASSERT_EQ(a.ranked.size(), b.ranked.size());
  for (size_t i = 0; i < a.ranked.size(); ++i) {
    EXPECT_EQ(a.ranked[i].workload, b.ranked[i].workload);
    EXPECT_EQ(std::bit_cast<uint64_t>(a.ranked[i].mean_distance),
              std::bit_cast<uint64_t>(b.ranked[i].mean_distance));
  }
  EXPECT_EQ(a.neighbors, b.neighbors);
}

// The whole-experiment gate's substitution, replayed from the report:
// healthy selected features in order, then the next-ranked healthy features
// the representation can express.
std::vector<size_t> OracleEffectiveFeatures(const Pipeline& pipeline,
                                            const Experiment& observed) {
  const std::vector<size_t> unusable =
      AnalyzeExperiment(observed, pipeline.config().quality).UnusableFeatures();
  auto is_unusable = [&](size_t f) {
    return std::find(unusable.begin(), unusable.end(), f) != unusable.end();
  };
  const std::vector<size_t>& selected = pipeline.selected_features();
  std::vector<size_t> effective;
  for (size_t f : selected) {
    if (!is_unusable(f)) effective.push_back(f);
  }
  const size_t lost = selected.size() - effective.size();
  size_t added = 0;
  const FeatureRanking& ranking = pipeline.feature_ranking();
  for (size_t f : ranking.TopK(ranking.ranks.size())) {
    if (added == lost) break;
    if (is_unusable(f) ||
        std::find(selected.begin(), selected.end(), f) != selected.end() ||
        (pipeline.config().representation == Representation::kMts &&
         f >= kNumResourceFeatures)) {
      continue;
    }
    effective.push_back(f);
    ++added;
  }
  return effective;
}

uint64_t ObservationRepairs() {
  return obs::MetricsRegistry::Global()
      .GetCounter("pipeline.observation_repairs")
      .value();
}

// Metamorphic relation: dropout or stuck-at in an unselected resource column
// of the observation leaves every read bit-identical to the clean
// observation's, undegraded. A fault in a selected column degrades to the
// whole-experiment gate's substitution. pipeline.observation_repairs counts
// the reads that copied the observation.
void ExpectReadsSeeOnlySelectedColumns(const PipelineConfig& config,
                                       const ExperimentCorpus& corpus) {
  Pipeline pipeline(config);
  ASSERT_TRUE(pipeline.Fit(corpus).ok());
  const std::vector<size_t>& selected = pipeline.selected_features();
  const SimConfig sim{.duration_s = 40.0, .sample_period_s = 0.5};
  const Experiment clean =
      RunOne("TPC-C", MakeCpuSku(2), 8, 9, sim, 555).value();

  obs::SetMetricsEnabled(true);
  obs::MetricsRegistry::Global().ResetAll();
  const Reads baseline = ReadAll(pipeline, clean);
  EXPECT_FALSE(baseline.prediction.degraded);
  EXPECT_EQ(baseline.prediction.effective_features, selected);
  for (int i = 0; i < 4; ++i) {
    ExpectSameReads(ReadAll(pipeline, clean), baseline);
  }
  EXPECT_EQ(ObservationRepairs(), 0u);  // 15 clean reads, no copy

  size_t unselected_columns = 0;
  for (int c = 0; c < static_cast<int>(kNumResourceFeatures); ++c) {
    const bool is_selected =
        std::find(selected.begin(), selected.end(), static_cast<size_t>(c)) !=
        selected.end();
    unselected_columns += is_selected ? 0 : 1;
    for (const FaultSpec& spec :
         {FaultSpec::SensorDropout(c), FaultSpec::StuckSensor(0.8, c)}) {
      SCOPED_TRACE(spec.ToString());
      Experiment faulted = clean;
      Rng rng(7);
      ASSERT_TRUE(ApplyFault(spec, faulted, rng).ok());
      // Dropout always writes (zero-fill); stuck-at copies only when a
      // selected column froze.
      const bool copies = spec.kind == FaultKind::kSensorDropout || is_selected;
      const uint64_t before = ObservationRepairs();
      const Reads reads = ReadAll(pipeline, faulted);
      EXPECT_EQ(ObservationRepairs() - before, copies ? 3u : 0u);
      if (!is_selected) {
        ExpectSameReads(reads, baseline);
        continue;
      }
      EXPECT_TRUE(reads.prediction.degraded);
      EXPECT_EQ(reads.prediction.effective_features,
                OracleEffectiveFeatures(pipeline, faulted));
      EXPECT_EQ(std::count(reads.prediction.effective_features.begin(),
                           reads.prediction.effective_features.end(),
                           static_cast<size_t>(c)),
                0);
    }
  }
  EXPECT_GT(unselected_columns, 0u);
  obs::SetMetricsEnabled(false);
  obs::MetricsRegistry::Global().ResetAll();
}

// On this corpus fANOVA + Hist-FP selects plan features only, so every
// resource column is an unselected one; the MTS run covers selected ones.
TEST_F(QualityTest, ReadsSeeOnlySelectedColumnsHistFp) {
  PipelineConfig config;
  config.selector = "fANOVA";
  ExpectReadsSeeOnlySelectedColumns(config, *corpus_);
}

TEST_F(QualityTest, ReadsSeeOnlySelectedColumnsMts) {
  ExpectReadsSeeOnlySelectedColumns(FastMtsConfig(), *corpus_);
}

// --- a degraded read rescans the references over its effective features -----

// Kills the first selected resource feature of the observation, then checks
// the degraded reads against an exhaustive test-side scan: the reference
// corpus gated as Fit gates it, every representation rebuilt over the read's
// effective features, one MeasureDistance per reference.
void ExpectDegradedReadsMatchRebuiltScan(const PipelineConfig& config,
                                         const ExperimentCorpus& corpus) {
  Pipeline pipeline(config);
  ASSERT_TRUE(pipeline.Fit(corpus).ok());
  const std::vector<size_t>& selected = pipeline.selected_features();
  const auto dead = std::find_if(selected.begin(), selected.end(), [](size_t f) {
    return f < kNumResourceFeatures;
  });
  ASSERT_NE(dead, selected.end()) << "no selected resource feature";
  const SimConfig sim{.duration_s = 40.0, .sample_period_s = 0.5};
  Experiment observed = RunOne("TPC-C", MakeCpuSku(2), 8, 9, sim, 555).value();
  Rng rng(7);
  ASSERT_TRUE(
      ApplyFault(FaultSpec::SensorDropout(static_cast<int>(*dead)), observed,
                 rng)
          .ok());

  const auto prediction = pipeline.PredictThroughput(observed, 8);
  ASSERT_TRUE(prediction.ok()) << prediction.status().ToString();
  ASSERT_TRUE(prediction->degraded);
  const std::vector<size_t>& features = prediction->effective_features;

  const auto gated = GateCorpus(corpus, config.quality, nullptr);
  ASSERT_TRUE(gated.ok());
  ASSERT_EQ(gated->size(), pipeline.reference_workloads().size());
  Experiment repaired = observed;
  ASSERT_TRUE(RepairExperiment(repaired, config.quality).ok());
  const NormalizationContext& ctx = pipeline.normalization();
  const Matrix query =
      BuildRepresentation(config.representation, repaired, features, ctx)
          .value();
  std::vector<Matrix> rebuilt;
  std::map<std::string, std::pair<double, size_t>> totals;  // sum, count
  std::vector<Neighbor> scan;
  for (size_t i = 0; i < gated->size(); ++i) {
    rebuilt.push_back(BuildRepresentation(config.representation, (*gated)[i],
                                          features, ctx)
                          .value());
    const double distance =
        MeasureDistance(config.measure, query, rebuilt.back()).value();
    auto& [sum, count] = totals[pipeline.reference_workloads()[i]];
    sum += distance;
    count += 1;
    scan.push_back({i, distance});
  }
  std::sort(scan.begin(), scan.end(), [](const Neighbor& a, const Neighbor& b) {
    if (a.distance != b.distance) return a.distance < b.distance;
    return a.index < b.index;
  });

  const auto ranked = pipeline.RankWorkloads(observed);
  ASSERT_TRUE(ranked.ok()) << ranked.status().ToString();
  ASSERT_EQ(ranked->size(), totals.size());
  for (const Pipeline::WorkloadDistance& entry : *ranked) {
    const auto& [sum, count] = totals.at(entry.workload);
    EXPECT_EQ(std::bit_cast<uint64_t>(entry.mean_distance),
              std::bit_cast<uint64_t>(sum / static_cast<double>(count)))
        << entry.workload;
  }
  EXPECT_EQ(prediction->reference_workload, ranked->front().workload);
  EXPECT_EQ(std::bit_cast<uint64_t>(prediction->similarity_distance),
            std::bit_cast<uint64_t>(ranked->front().mean_distance));

  // k = 3 runs the pruned cascade, k = n the exact scan.
  for (const size_t k : {size_t{3}, gated->size()}) {
    SCOPED_TRACE(k);
    const auto neighbors = pipeline.NearestReferences(observed, k);
    ASSERT_TRUE(neighbors.ok()) << neighbors.status().ToString();
    if (config.measure == "Dependent-DTW" ||
        config.measure == "Independent-DTW") {
      const auto exhaustive =
          reference::ExhaustiveTopK(rebuilt, query, config.measure, 0, k);
      ASSERT_TRUE(exhaustive.ok());
      EXPECT_EQ(*neighbors, *exhaustive);
    }
    EXPECT_EQ(*neighbors,
              std::vector<Neighbor>(scan.begin(), scan.begin() + k));
  }
}

TEST_F(QualityTest, DegradedMtsDtwReadsMatchRebuiltScan) {
  PipelineConfig config = FastMtsConfig();
  config.measure = "Dependent-DTW";
  ExpectDegradedReadsMatchRebuiltScan(config, *corpus_);
}

TEST_F(QualityTest, DegradedMtsIndependentDtwReadsMatchRebuiltScan) {
  PipelineConfig config = FastMtsConfig();
  config.measure = "Independent-DTW";
  ExpectDegradedReadsMatchRebuiltScan(config, *corpus_);
}

TEST_F(QualityTest, DegradedHistFpReadsMatchRebuiltScan) {
  PipelineConfig config;
  ASSERT_EQ(config.representation, Representation::kHistFp);
  ASSERT_EQ(config.measure, "L2,1-Norm");
  ExpectDegradedReadsMatchRebuiltScan(config, *corpus_);
}

// A resource matrix with fewer columns than the catalog used to abort the
// process (Matrix::Col's CHECK) once a selected feature fell outside it.
TEST_F(QualityTest, NarrowObservationIsRejectedNotFatal) {
  for (bool gate : {true, false}) {
    SCOPED_TRACE(gate ? "gate on" : "gate off");
    PipelineConfig config = FastMtsConfig();
    config.quality_gate = gate;
    Pipeline pipeline(config);
    ASSERT_TRUE(pipeline.Fit(*corpus_).ok());
    const std::vector<size_t>& selected = pipeline.selected_features();
    ASSERT_TRUE(std::any_of(selected.begin(), selected.end(),
                            [](size_t f) { return f >= 2; }));
    Experiment narrow = Sample();
    narrow.resource.values = narrow.resource.values.SelectCols({0, 1});
    EXPECT_FALSE(PassesUntouched(narrow, config.quality, selected));

    const auto prediction = pipeline.PredictThroughput(narrow, 8);
    ASSERT_FALSE(prediction.ok());
    EXPECT_EQ(prediction.status().code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(pipeline.RankWorkloads(narrow).status().code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(pipeline.NearestReferences(narrow, 2).status().code(),
              StatusCode::kInvalidArgument);
    EXPECT_TRUE(pipeline.PredictThroughput(Sample(), 8).ok());
  }
}

// --- acceptance: dirty corpus on disk, end to end ---------------------------

TEST_F(QualityTest, DirtyCorpusOnDiskStillFitsAndPredicts) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("wpred_quality_test_" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);

  // A good corpus on disk + one NaN-riddled experiment + one corrupt file.
  ExperimentCorpus on_disk = *corpus_;
  Rng rng(7);
  ASSERT_TRUE(
      ApplyFault(FaultSpec::SensorDropout(3), on_disk[0], rng).ok());
  ASSERT_TRUE(WriteCorpus(on_disk, dir.string()).ok());
  {
    std::ofstream bad(dir / "zzzz_corrupt.wpred.csv");
    bad << "section,key,values\nmeta,format,wpred-experiment-v1\n"
        << "resource,0,1;2;3\n";  // wrong arity: unreadable
  }

  // Strict read aborts; lenient read loads everything loadable + a report.
  EXPECT_FALSE(ReadCorpus(dir.string()).ok());
  CorpusReadReport read_report;
  const auto loaded =
      ReadCorpus(dir.string(), {.skip_bad_files = true}, &read_report);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->size(), on_disk.size());  // NaN file parses fine
  EXPECT_EQ(read_report.items.size(), on_disk.size() + 1);
  EXPECT_EQ(read_report.num_skipped(), 1u);
  EXPECT_EQ(read_report.items.back().status.code(),
            StatusCode::kInvalidArgument);

  // The NaN-riddled experiment round-tripped its NaNs...
  EXPECT_TRUE(std::isnan((*loaded)[0].resource.values(0, 3)));
  // ...and the pipeline still fits (gate repairs it) and predicts.
  PipelineConfig config;
  config.selector = "fANOVA";
  Pipeline pipeline(config);
  ASSERT_TRUE(pipeline.Fit(*loaded).ok());
  EXPECT_TRUE(pipeline.fit_report().quarantined.empty());
  const auto prediction = pipeline.PredictThroughput((*loaded)[1], 8);
  ASSERT_TRUE(prediction.ok()) << prediction.status().ToString();
  EXPECT_TRUE(std::isfinite(prediction->throughput_tps));

  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace wpred
