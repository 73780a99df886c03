// Reproduces paper Figure 11 and Section 6.2.3's end-to-end experiments:
//
// (1) YCSB observed on 2 CPUs; the pipeline identifies TPC-C as the most
//     similar reference workload and transfers TPC-C's pairwise SVR model
//     to predict YCSB's throughput on 8 CPUs (paper NRMSE: 0.0948).
// (2) Multi-dimensional SKUs: references run on S1 (4 CPU / 32 GB) and S2
//     (8 CPU / 64 GB); YCSB observed on S1 only. Prediction via the
//     pipeline-chosen reference (TPC-C) is compared against forcing the
//     wrong reference (Twitter): paper MAPE 0.206 vs 0.563.

#include "bench_util.h"
#include "core/pipeline.h"
#include "linalg/stats.h"
#include "ml/metrics.h"

namespace wpred::bench {
namespace {

Experiment ObserveYcsb(const Sku& sku, int run) {
  return RequireOk(RunOne("YCSB", sku, 8, run, FastSimConfig(), 0xe2e),
                   "ycsb observation");
}

void PartOne() {
  std::printf("--- Part 1: YCSB 2 -> 8 CPUs via the full pipeline ---\n");
  WorkbenchConfig config;
  config.workloads = {"TPC-C", "Twitter", "TPC-H"};
  config.skus = {MakeCpuSku(2), MakeCpuSku(8)};
  config.terminals = {8};
  config.runs = 3;
  config.sim = FastSimConfig();
  const ExperimentCorpus reference =
      RequireOk(GenerateCorpus(config), "reference corpus");

  Pipeline pipeline{PipelineConfig{}};  // RFE LogReg / Hist-FP / L2,1 / SVM
  Require(pipeline.Fit(reference), "pipeline fit");

  TablePrinter table({"run", "chosen reference", "observed tput@2",
                      "predicted tput@8", "actual tput@8", "APE%"});
  Vector actuals, predictions;
  for (int run = 0; run < 3; ++run) {
    const Experiment observed = ObserveYcsb(MakeCpuSku(2), run);
    const Experiment truth = ObserveYcsb(MakeCpuSku(8), run);
    const auto prediction =
        RequireOk(pipeline.PredictThroughput(observed, 8), "prediction");
    actuals.push_back(truth.perf.throughput_tps);
    predictions.push_back(prediction.throughput_tps);
    table.AddRow({StrFormat("%d", run), prediction.reference_workload,
                  F1(observed.perf.throughput_tps),
                  F1(prediction.throughput_tps),
                  F1(truth.perf.throughput_tps),
                  F1(100.0 * std::fabs(prediction.throughput_tps -
                                       truth.perf.throughput_tps) /
                     truth.perf.throughput_tps)});
  }
  table.Print(std::cout);
  std::printf("RMSE/mean over runs: %.4f (paper reports NRMSE 0.0948 for "
              "this experiment)\n\n",
              Rmse(actuals, predictions) / Mean(actuals));
}

void PartTwo() {
  std::printf("--- Part 2: multi-dimensional SKUs S1(4cpu/32GB) -> "
              "S2(8cpu/64GB) ---\n");
  WorkbenchConfig config;
  config.workloads = {"TPC-C", "Twitter", "TPC-H"};
  config.skus = {MakeS1(), MakeS2()};
  config.terminals = {8};
  config.runs = 3;
  config.sim = FastSimConfig();
  const ExperimentCorpus reference =
      RequireOk(GenerateCorpus(config), "reference corpus");

  Pipeline pipeline{PipelineConfig{}};
  Require(pipeline.Fit(reference), "pipeline fit");

  const Experiment observed = ObserveYcsb(MakeS1(), 0);
  const Experiment truth = ObserveYcsb(MakeS2(), 0);
  const auto prediction =
      RequireOk(pipeline.PredictThroughput(observed, MakeS2().cpus),
                "prediction");

  // Forced wrong reference: Twitter's pairwise model, transferred through
  // the same PredictTransitionScaled call the pipeline makes for its pick,
  // so the two rows differ only in the reference the similarity stage
  // chose.
  const std::vector<SkuPerfPoint> twitter_points =
      RequireOk(CollectScalingPoints(reference, "Twitter", 8, 10), "points");
  PairwiseScalingModel twitter_model;
  Require(twitter_model.Fit("SVM", twitter_points), "twitter model");
  const double twitter_prediction = RequireOk(
      twitter_model.PredictTransitionScaled(MakeS1().cpus, MakeS2().cpus,
                                            observed.perf.throughput_tps,
                                            observed.data_group),
      "twitter transition");

  const double actual = truth.perf.throughput_tps;
  TablePrinter table({"reference", "predicted tput@S2", "actual tput@S2",
                      "MAPE"});
  table.AddRow({prediction.reference_workload + " (pipeline pick)",
                F1(prediction.throughput_tps), F1(actual),
                F3(std::fabs(prediction.throughput_tps - actual) / actual)});
  table.AddRow({"Twitter (forced)", F1(twitter_prediction), F1(actual),
                F3(std::fabs(twitter_prediction - actual) / actual)});
  table.Print(std::cout);
  std::printf("Paper: TPC-C reference MAPE 0.206 vs Twitter reference "
              "0.563 — the similarity stage picks the reference that "
              "transfers better.\n");
}

void Run() {
  Banner("Figure 11 / Section 6.2.3 - end-to-end workload scaling prediction",
         "pipeline transfers the most-similar workload's scaling model");
  PartOne();
  PartTwo();
}

}  // namespace
}  // namespace wpred::bench

int main() { wpred::bench::Run(); }
