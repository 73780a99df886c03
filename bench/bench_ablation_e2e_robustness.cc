// Ablation: fault intensity vs END-TO-END prediction error. The paper's
// Section 5.2 robustness dimension is evaluated only on the similarity
// stage; this bench extends it to the full pipeline (feature selection →
// similarity → scaling model transfer) by corrupting the OBSERVED telemetry
// with the shared fault library (telemetry/faults.h) and measuring
// prediction NRMSE with the data-quality gate on vs off.
//
// Expected shape: with the gate on, repairable faults (noise, outliers,
// gaps) cost little accuracy; sensor dropout / stuck-at on selected
// features degrades gracefully via next-ranked-feature fallback; with the
// gate off, the same faults either crash the representation or silently
// shift predictions.
//
// Flag:
//   --metrics-json=PATH  turn the obs layer on and write its full dump
//                        (counters, span tree, pool stats) to PATH on exit;
//                        tools/metrics_summary pretty-prints it.

#include <cmath>
#include <string>

#include "bench_util.h"
#include "core/pipeline.h"
#include "linalg/stats.h"
#include "ml/metrics.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "telemetry/faults.h"

namespace wpred::bench {
namespace {

/// Opt-in metrics capture. Construct at the top of main(argc, argv); if
/// `--metrics-json=PATH` is on the command line, the process-wide metrics
/// switch is flipped on and the destructor writes the full metrics/span
/// dump to PATH when the bench finishes.
class BenchMetrics {
 public:
  BenchMetrics(int argc, char** argv) {
    constexpr const char* kFlag = "--metrics-json=";
    const size_t flag_len = std::string(kFlag).size();
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg.rfind(kFlag, 0) == 0) {
        path_ = arg.substr(flag_len);
        if (path_.empty()) {
          std::fprintf(stderr, "FATAL --metrics-json needs a path\n");
          std::exit(1);
        }
        obs::SetMetricsEnabled(true);
      }
    }
  }

  ~BenchMetrics() {
    if (path_.empty()) return;
    const Status status = obs::WriteMetricsJsonFile(path_);
    if (!status.ok()) {
      std::fprintf(stderr, "FATAL writing %s: %s\n", path_.c_str(),
                   status.ToString().c_str());
      std::exit(1);
    }
    std::printf("metrics written to %s\n", path_.c_str());
  }

  BenchMetrics(const BenchMetrics&) = delete;
  BenchMetrics& operator=(const BenchMetrics&) = delete;

 private:
  std::string path_;
};

constexpr int kRuns = 3;

struct Scenario {
  std::string name;
  std::vector<FaultSpec> faults;
};

struct Outcome {
  std::string nrmse = "-";     // "-" = no prediction survived
  size_t degraded = 0;         // predictions that used fallback features
  size_t refused = 0;          // non-OK predictions
};

Outcome Evaluate(const Pipeline& pipeline, const Scenario& scenario,
                 uint64_t seed) {
  Vector actuals, predictions;
  Outcome outcome;
  const Rng base(seed);
  for (int run = 0; run < kRuns; ++run) {
    Experiment observed = RequireOk(
        RunOne("YCSB", MakeCpuSku(2), 8, run, FastSimConfig(), 0xe2e),
        "ycsb observation");
    const Experiment truth = RequireOk(
        RunOne("YCSB", MakeCpuSku(8), 8, run, FastSimConfig(), 0xe2e),
        "ycsb truth");
    Rng rng = base.Fork(run);
    Require(ApplyFaults(scenario.faults, observed, rng), "fault injection");

    const auto prediction = pipeline.PredictThroughput(observed, 8);
    if (!prediction.ok()) {
      ++outcome.refused;
      continue;
    }
    if (prediction->degraded) ++outcome.degraded;
    if (!std::isfinite(prediction->throughput_tps)) continue;  // gate off
    actuals.push_back(truth.perf.throughput_tps);
    predictions.push_back(prediction->throughput_tps);
  }
  if (!actuals.empty()) {
    outcome.nrmse = F3(Rmse(actuals, predictions) / Mean(actuals));
  }
  return outcome;
}

void Run() {
  Banner("Ablation - end-to-end robustness: fault intensity vs prediction "
         "NRMSE",
         "extends Section 5.2's similarity-only robustness to the full "
         "pipeline; quality gate degrades gracefully, never silently");

  WorkbenchConfig config;
  config.workloads = {"TPC-C", "Twitter", "TPC-H"};
  config.skus = {MakeCpuSku(2), MakeCpuSku(8)};
  config.terminals = {8};
  config.runs = 3;
  config.sim = FastSimConfig();
  const ExperimentCorpus reference =
      RequireOk(GenerateCorpus(config), "reference corpus");

  PipelineConfig gated;        // quality gate on (default)
  PipelineConfig ungated;
  ungated.quality_gate = false;
  Pipeline with_gate{gated};
  Pipeline without_gate{ungated};
  Require(with_gate.Fit(reference), "fit (gate on)");
  Require(without_gate.Fit(reference), "fit (gate off)");

  // Target the top-selected feature so dropout/stuck actually hit the
  // similarity stage (random features often miss the selected set).
  const int top_feature =
      with_gate.selected_features().empty()
          ? 0
          : static_cast<int>(with_gate.selected_features().front());

  const std::vector<Scenario> scenarios = {
      {"clean", {}},
      {"noise 10%", {FaultSpec::Noise(0.10)}},
      {"noise 30%", {FaultSpec::Noise(0.30)}},
      {"outliers 5% x10", {FaultSpec::Outliers(0.05, 10.0)}},
      {"missing 20-50%", {FaultSpec::DropSamples(0.2, 0.5)}},
      {"dropout top feature", {FaultSpec::SensorDropout(top_feature)}},
      {"stuck top feature", {FaultSpec::StuckSensor(0.8, top_feature)}},
      {"dup 20% + reorder 10%",
       {FaultSpec::DuplicateSamples(0.2), FaultSpec::OutOfOrderSamples(0.1)}},
      {"truncated to 30%", {FaultSpec::TruncateRun(0.3)}},
      {"dropout + noise 20%",
       {FaultSpec::SensorDropout(top_feature), FaultSpec::Noise(0.20)}}};

  TablePrinter table({"fault scenario", "NRMSE (gate on)", "degraded",
                      "refused", "NRMSE (gate off)", "gate-off refused"});
  for (const Scenario& scenario : scenarios) {
    const uint64_t seed = 0xfa17 + std::hash<std::string>{}(scenario.name);
    const Outcome on = Evaluate(with_gate, scenario, seed);
    const Outcome off = Evaluate(without_gate, scenario, seed);
    table.AddRow({scenario.name, on.nrmse,
                  StrFormat("%zu/%d", on.degraded, kRuns),
                  StrFormat("%zu/%d", on.refused, kRuns), off.nrmse,
                  StrFormat("%zu/%d", off.refused, kRuns)});
  }
  table.Print(std::cout);
  std::printf(
      "Gate on: repairs noise/gaps, substitutes next-ranked features for "
      "dead sensors, refuses only when telemetry is beyond repair.\n"
      "Gate off: dirty telemetry flows into the representation unchecked — "
      "refusals there are hard representation errors, and any NRMSE it does "
      "report may come from silently shifted predictions.\n");

  // Fit-side gate: a reference corpus with one NaN-riddled (repairable) and
  // one hopeless experiment still fits, quarantining the hopeless one.
  std::printf("\n--- Fit-side quarantine ---\n");
  ExperimentCorpus dirty = reference;
  Rng rng(0xd127);
  Require(ApplyFault(FaultSpec::SensorDropout(top_feature), dirty[0], rng),
          "dropout");
  dirty[1].perf.throughput_tps = std::nan("");
  Pipeline refit{PipelineConfig{}};
  Require(refit.Fit(dirty), "fit with dirty corpus");
  std::printf("fit report: %s\n", refit.fit_report().Summary().c_str());
}

}  // namespace
}  // namespace wpred::bench

int main(int argc, char** argv) {
  const wpred::bench::BenchMetrics metrics(argc, argv);
  wpred::bench::Run();
}
