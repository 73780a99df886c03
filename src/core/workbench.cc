#include "core/workbench.h"

#include <algorithm>
#include <cmath>

#include "common/parallel.h"
#include "common/rng.h"
#include "linalg/stats.h"
#include "sim/workload_spec.h"
#include "telemetry/subsample.h"

namespace wpred {
namespace {

// Stable coordinate hash for experiment seeds.
uint64_t CoordinateSeed(uint64_t base, const std::string& workload, int cpus,
                        int terminals, int run) {
  uint64_t h = base ^ 0x9e3779b97f4a7c15ULL;
  for (char c : workload) h = (h * 1099511628211ULL) ^ static_cast<uint64_t>(c);
  h = (h * 1099511628211ULL) ^ static_cast<uint64_t>(cpus);
  h = (h * 1099511628211ULL) ^ static_cast<uint64_t>(terminals * 131);
  h = (h * 1099511628211ULL) ^ static_cast<uint64_t>(run * 31337);
  return h;
}

}  // namespace

Result<Experiment> RunOne(const std::string& workload, const Sku& sku,
                          int terminals, int run, const SimConfig& sim_base,
                          uint64_t base_seed) {
  WPRED_ASSIGN_OR_RETURN(WorkloadSpec spec, WorkloadByName(workload));
  RunRequest request;
  request.workload = std::move(spec);
  request.sku = sku;
  request.terminals = terminals;
  request.run_id = run;
  request.config = sim_base;
  request.config.seed =
      CoordinateSeed(base_seed, workload, sku.cpus, terminals, run);
  request.config.data_group = run % 3;
  return RunExperiment(request);
}

Result<ExperimentCorpus> GenerateCorpus(const WorkbenchConfig& config) {
  if (config.workloads.empty() || config.skus.empty() ||
      config.terminals.empty() || config.runs < 1) {
    return Status::InvalidArgument("empty workbench grid");
  }
  struct Coordinate {
    const std::string* workload;
    const Sku* sku;
    int terminals;
    int run;
  };
  std::vector<Coordinate> grid;
  for (const std::string& workload : config.workloads) {
    WPRED_ASSIGN_OR_RETURN(const WorkloadSpec spec, WorkloadByName(workload));
    // Serial workloads collapse the terminal axis.
    const std::vector<int> terminal_list =
        spec.serial_only ? std::vector<int>{1} : config.terminals;
    for (const Sku& sku : config.skus) {
      for (int terminals : terminal_list) {
        for (int run = 0; run < config.runs; ++run) {
          grid.push_back({&workload, &sku, terminals, run});
        }
      }
    }
  }

  // Each coordinate's seed is a pure hash of the coordinate and its result
  // lands in its own slot, so the corpus does not depend on the thread
  // count. Task t runs coordinates t, t+T, t+2T, ...: a 120 s run costs
  // about 1 ms for TPC-DS and 250 ms for YCSB at 32 terminals, and the grid
  // is workload-major, so contiguous chunks would hand whole expensive
  // workloads to one task. Striding spreads every kind over all tasks.
  const size_t n = grid.size();
  const size_t tasks =
      std::min(n, static_cast<size_t>(DefaultNumThreads()));
  std::vector<Experiment> experiments(n);
  std::vector<Status> statuses(n);
  WPRED_RETURN_IF_ERROR(
      ParallelFor(tasks, static_cast<int>(tasks), [&](size_t t) -> Status {
        for (size_t i = t; i < n; i += tasks) {
          const Coordinate& c = grid[i];
          Result<Experiment> e = RunOne(*c.workload, *c.sku, c.terminals,
                                        c.run, config.sim, config.base_seed);
          if (e.ok()) {
            experiments[i] = std::move(e).value();
          } else {
            statuses[i] = e.status();
          }
        }
        return Status::OK();
      }));
  ExperimentCorpus corpus;
  for (size_t i = 0; i < n; ++i) {
    WPRED_RETURN_IF_ERROR(statuses[i]);  // the first failure in grid order
    corpus.Add(std::move(experiments[i]));
  }
  return corpus;
}

Result<AggregateObservations> BuildAggregateObservations(
    const ExperimentCorpus& corpus, size_t subsamples) {
  if (corpus.empty()) return Status::InvalidArgument("empty corpus");
  AggregateObservations obs;
  obs.workload_names = corpus.WorkloadNames();
  const std::vector<int> labels = corpus.WorkloadLabels();
  std::vector<Vector> rows;
  for (size_t i = 0; i < corpus.size(); ++i) {
    WPRED_ASSIGN_OR_RETURN(std::vector<Experiment> subs,
                           SystematicSubsample(corpus[i], subsamples));
    for (const Experiment& sub : subs) {
      rows.push_back(AggregateFeatureVector(sub));
      obs.labels.push_back(labels[i]);
      obs.experiment_idx.push_back(i);
    }
  }
  obs.x = Matrix::FromRows(rows);
  return obs;
}

Result<SelectionProblem> BuildOneVsRestProblem(
    const AggregateObservations& aggregates,
    const std::vector<int>& corpus_workload_labels, size_t experiment_idx) {
  if (aggregates.x.rows() != aggregates.experiment_idx.size()) {
    return Status::InvalidArgument("malformed aggregates");
  }
  bool experiment_seen = false;
  for (size_t parent : aggregates.experiment_idx) {
    if (parent >= corpus_workload_labels.size()) {
      return Status::InvalidArgument("experiment index out of range");
    }
    if (parent == experiment_idx) experiment_seen = true;
  }
  if (!experiment_seen) {
    return Status::NotFound("experiment has no aggregate rows");
  }
  const int target_label = corpus_workload_labels[experiment_idx];
  std::vector<size_t> rows;
  SelectionProblem problem;
  for (size_t r = 0; r < aggregates.x.rows(); ++r) {
    const size_t parent = aggregates.experiment_idx[r];
    const bool same_experiment = parent == experiment_idx;
    const bool same_workload = corpus_workload_labels[parent] == target_label;
    if (same_workload && !same_experiment) continue;  // hold out twins
    rows.push_back(r);
    problem.y.push_back(same_experiment ? 1 : 0);
  }
  problem.x = aggregates.x.SelectRows(rows);
  return problem;
}

Result<std::vector<SkuPerfPoint>> CollectScalingPoints(
    const ExperimentCorpus& corpus, const std::string& workload, int terminals,
    size_t subsamples) {
  std::vector<SkuPerfPoint> points;
  for (const Experiment& e : corpus.experiments()) {
    if (e.workload != workload) continue;
    if (e.terminals != terminals) continue;
    // Only the sub-experiments' rows are needed: building the
    // sub-experiments would copy the plans and latencies ten times over.
    WPRED_ASSIGN_OR_RETURN(
        const std::vector<std::vector<size_t>> subs,
        SystematicSubsampleRows(e.resource.num_samples(), subsamples));
    // The run's mean activity anchors the sub-sample jitter.
    const size_t cpu = IndexOf(FeatureId::kCpuEffective);
    const Vector activity_full = e.resource.values.Col(cpu);
    const double full_mean = Mean(activity_full) + 1e-9;
    Vector activity;
    for (size_t s = 0; s < subs.size(); ++s) {
      activity.clear();
      for (const size_t r : subs[s]) {
        activity.push_back(e.resource.values(r, cpu));
      }
      const double factor = (Mean(activity) + 1e-9) / full_mean;
      SkuPerfPoint point;
      point.sku_value = e.cpus;
      point.perf = e.perf.throughput_tps * factor;
      point.group = e.data_group;
      point.run_id = e.run_id;
      point.sample_id = static_cast<int>(s);
      points.push_back(point);
    }
  }
  if (points.empty()) {
    return Status::NotFound("no experiments matched workload/terminals");
  }
  return points;
}

}  // namespace wpred
