#ifndef WPRED_CORE_WORKBENCH_H_
#define WPRED_CORE_WORKBENCH_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "predict/scaling_model.h"
#include "sim/engine.h"
#include "sim/hardware.h"
#include "telemetry/experiment.h"
#include "telemetry/observation.h"

namespace wpred {

/// Describes a grid of experiments to run on the simulator: every workload ×
/// SKU × terminal count × repetition (paper Section 2.1's grid). Seeds are
/// derived deterministically from the coordinates; repetition r is assigned
/// to data group r % 3 (the paper's three times of day).
struct WorkbenchConfig {
  std::vector<std::string> workloads;
  std::vector<Sku> skus;
  std::vector<int> terminals = {4, 8, 32};
  int runs = 3;
  SimConfig sim;
  uint64_t base_seed = 0xbe9c4;
};

/// Runs the grid and returns the corpus. Serial-only workloads (TPC-H,
/// TPC-DS) run once per SKU × repetition regardless of the terminal list.
/// Coordinates run in parallel at the default thread count; the corpus is
/// bit-identical at every thread count and keeps the grid order.
Result<ExperimentCorpus> GenerateCorpus(const WorkbenchConfig& config);

/// Runs a single experiment with the workbench's deterministic seeding.
Result<Experiment> RunOne(const std::string& workload, const Sku& sku,
                          int terminals, int run, const SimConfig& sim_base,
                          uint64_t base_seed);

/// Per-(sub)experiment aggregate observation rows with labels — the input
/// to feature-selection strategies (Section 4): each experiment is
/// systematically split into `subsamples` sub-experiments; each contributes
/// one aggregate 29-feature row labelled by workload.
struct AggregateObservations {
  Matrix x;
  std::vector<int> labels;
  std::vector<size_t> experiment_idx;  // parent index in the source corpus
  std::vector<std::string> workload_names;
};
Result<AggregateObservations> BuildAggregateObservations(
    const ExperimentCorpus& corpus, size_t subsamples = 10);

/// One-vs-rest feature-selection problem for a single experiment (the
/// paper's per-experiment ranking protocol, Section 4.2): positives are the
/// experiment's own aggregate rows; negatives are rows of OTHER workloads;
/// rows from other runs of the same workload are held out entirely.
struct SelectionProblem {
  Matrix x;
  std::vector<int> y;  // 1 = rows of `experiment_idx`, 0 = other workloads
};
Result<SelectionProblem> BuildOneVsRestProblem(
    const AggregateObservations& aggregates,
    const std::vector<int>& corpus_workload_labels, size_t experiment_idx);

/// Scaling observations of one workload over a corpus: throughput per
/// (SKU, run, sub-sample) with random down-sampling of each run's resource
/// series driving sample-level jitter (paper Section 6.2's augmentation:
/// the sub-sample's throughput is the run throughput perturbed by the
/// sub-series' relative activity).
Result<std::vector<SkuPerfPoint>> CollectScalingPoints(
    const ExperimentCorpus& corpus, const std::string& workload,
    int terminals, size_t subsamples = 10);

}  // namespace wpred

#endif  // WPRED_CORE_WORKBENCH_H_
