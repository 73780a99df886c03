// bench_e2e — the repository's end-to-end benchmark (see BENCHMARK.json and
// README.md in this directory). One process runs one workload:
//
//   paper_fit  the paper's Section 6.2.3 workflow at PipelineConfig{}
//              defaults (RFE LogReg top-7, Hist-FP, L2,1, pairwise SVR) on a
//              96-experiment reference grid: timed Pipeline::Fit calls, then
//              one closed-loop client predicting held-out YCSB/PW runs from
//              2 to 8 CPUs. Exercises featsel, model fitting, the quality
//              gate and the L2,1 scan; never enters the DTW cascade.
//   dtw_query  MTS + Dependent-DTW (Table 4's setting) over the same grid:
//              one closed-loop client cycling 16 held-out NearestReferences
//              queries. Almost all time is the serial sketch -> LB_Keogh ->
//              early-abandon DTW cascade; featsel and the pool do no timed
//              work on the read path.
//   live_loop  a PredictionService fed by an IncrementalIngest: an open-loop
//              telemetry generator (400 samples/s, six workloads rotating),
//              one reader paced at 1000 Predict/s, and background refits on
//              change points. The only workload with writes beside reads.
//
// Usage:
//   bench_e2e --workload NAME --seed N [--seconds S] [--trace 0|1]
//             [--json PATH]
//   bench_e2e --smoke     all three workloads at tiny sizes, every check on
// (`--flag=value` works as well as `--flag value`.)
//
// Every correctness oracle runs before timing starts. Untraced runs report
// the end-to-end metrics; --trace 1 runs turn on obs, time a replica of each
// public call sequence with the benchmark's own spans, and report the
// per-layer metrics. Each metric is printed as `<workload> <metric> <value>
// <unit> n=<samples>`; the last stdout line is one JSON object
// {"correct", "attempted", "failed", "metrics"}. The exit code is nonzero
// when a check fails or an operation fails.

#include <algorithm>
#include <atomic>
#include <bit>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/parallel.h"
#include "core/pipeline.h"
#include "core/workbench.h"
#include "e2e_util.h"
#include "featsel/ranking.h"
#include "featsel/registry.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "predict/scaling_model.h"
#include "serve/service.h"
#include "sim/hardware.h"
#include "sim/workload_spec.h"
#include "similarity/bcpd.h"
#include "similarity/query.h"
#include "similarity/representation.h"
#include "stream/ingest.h"
#include "stream/window.h"
#include "telemetry/feature_catalog.h"
#include "telemetry/quality.h"

namespace wpred::bench {
namespace {

using Clock = std::chrono::steady_clock;
using serve::PredictionService;
using serve::ServiceConfig;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double SecondsBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

[[noreturn]] void Fatal(const std::string& message) {
  std::fprintf(stderr, "bench_e2e: %s\n", message.c_str());
  std::exit(2);
}

void Must(const Status& status, const char* what) {
  if (!status.ok()) Fatal(std::string(what) + ": " + status.ToString());
}

template <typename T>
T Must(Result<T> result, const char* what) {
  Must(result.status(), what);
  return std::move(result).value();
}

bool SameBits(double a, double b) {
  return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

double Median(const std::vector<double>& values) {
  return Percentile(values, 0.5);
}

// --- metric tables (mirrors BENCHMARK.json) ---------------------------------

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Reported by every untraced run, whatever the workload; README.md says
// what each one times on each workload.
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},        {"peak_rss_mb", "MB"}, {"build_ms", "ms"},
    {"read_p50_us", "us"},   {"reads_per_s", "1/s"},
};

// Reported by every --trace 1 run. A layer a workload does not exercise
// reports 0.
constexpr MetricSpec kPerLayer[] = {
    {"telemetry.gate_s", "s"},
    {"core.aggregate_s", "s"},
    {"featsel.score_s", "s"},
    {"similarity.repr_build_s", "s"},
    {"similarity.engine_build_s", "s"},
    {"predict.scaling_fit_s", "s"},
    {"parallel.busy_ratio", "ratio"},
    {"parallel.tasks", "count"},
    {"parallel.steals", "count"},
    {"telemetry.repair_us", "us"},
    {"similarity.repr_us", "us"},
    {"similarity.distances_us", "us"},
    {"predict.transition_us", "us"},
    {"similarity.rank_us", "us"},
    {"similarity.candidates_per_query", "count"},
    {"similarity.sketch_prune_ratio", "ratio"},
    {"similarity.lb_prune_ratio", "ratio"},
    {"similarity.exact_ratio", "ratio"},
    {"similarity.abandon_ratio", "ratio"},
    {"similarity.dtw_cells_per_query", "count"},
    {"stream.ingest_p50_us", "us"},
    {"stream.window_us", "us"},
    {"similarity.bcpd_us", "us"},
    {"similarity.append_ms", "ms"},
    {"stream.change_points", "count"},
    {"stream.refits_requested", "count"},
    {"serve.read_overhead_us", "us"},
    {"serve.refit_s", "s"},
    {"serve.publishes", "count"},
    {"serve.coalesced", "count"},
    {"sim.generate_s", "s"},
    {"sim.events", "count"},
    {"obs.trace_overhead_ratio", "ratio"},
    {"gen.lag_p99_us", "us"},
    {"core.fit_coverage", "ratio"},
    {"core.predict_coverage", "ratio"},
    {"stream.observe_coverage", "ratio"},
};

/// Ordered metric values of one run, each with the number of samples
/// behind it.
class Metrics {
 public:
  struct Entry {
    std::string name;
    double value = 0.0;
    std::string unit;
    uint64_t n = 0;
  };

  void Set(const std::string& name, double value, const std::string& unit,
           uint64_t n) {
    for (Entry& entry : entries_) {
      if (entry.name == name) {
        entry = {name, value, unit, n};
        return;
      }
    }
    entries_.push_back({name, value, unit, n});
  }

  const Entry* Find(const std::string& name) const {
    for (const Entry& entry : entries_) {
      if (entry.name == name) return &entry;
    }
    return nullptr;
  }

  const std::vector<Entry>& entries() const { return entries_; }

 private:
  std::vector<Entry> entries_;
};

/// Adds `tail.<name>_p<percent><unit suffix>` for a latency sample, when the
/// sample is large enough to have a tail (e2e_util.h's ten-beyond rule).
void SetTail(Metrics& metrics, const std::string& base,
             const std::vector<double>& samples, double scale,
             const std::string& unit) {
  const Tail tail = TailPercentile(samples);
  if (tail.percent == 0.0) return;
  char pct[16];
  std::snprintf(pct, sizeof(pct), "%g", tail.percent);
  std::string label = pct;
  std::replace(label.begin(), label.end(), '.', '_');
  metrics.Set("tail." + base + "_p" + label + "_" + unit, tail.value * scale,
              unit, samples.size());
}

// --- correctness bookkeeping ------------------------------------------------

class Checks {
 public:
  void Expect(bool ok, const std::string& what) {
    ++evaluated_;
    if (ok) return;
    failures_.push_back(what);
    std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
  }
  bool ok() const { return failures_.empty(); }
  size_t evaluated() const { return evaluated_; }
  const std::vector<std::string>& failures() const { return failures_; }

 private:
  size_t evaluated_ = 0;
  std::vector<std::string> failures_;
};

/// FNV-1a over 64-bit words: the run digests that must repeat exactly.
class Digest {
 public:
  void Add(uint64_t word) {
    for (int byte = 0; byte < 8; ++byte) {
      hash_ ^= (word >> (8 * byte)) & 0xff;
      hash_ *= 1099511628211ULL;
    }
  }
  void AddDouble(double value) { Add(std::bit_cast<uint64_t>(value)); }
  void AddString(const std::string& text) {
    for (char c : text) Add(static_cast<unsigned char>(c));
    Add(text.size());
  }
  std::string Hex() const {
    char buffer[20];
    std::snprintf(buffer, sizeof(buffer), "%016llx",
                  static_cast<unsigned long long>(hash_));
    return buffer;
  }

 private:
  uint64_t hash_ = 1469598103934665603ULL;
};

// --- spans ------------------------------------------------------------------

/// The benchmark's own trace: one record per span (name, start, end, parent,
/// request id), kept in memory and summarised or dumped when the run ends.
/// A disabled log records nothing. Single-threaded: only the thread driving
/// the replica calls records.
class SpanLog {
 public:
  struct Record {
    const char* name;
    Clock::time_point start;
    Clock::time_point end;
    int32_t parent;
    uint32_t request;
  };

  explicit SpanLog(bool enabled) : enabled_(enabled) {
    if (enabled_) records_.reserve(1 << 16);
  }

  int32_t Open(const char* name, int32_t parent, uint32_t request) {
    if (!enabled_) return -1;
    records_.push_back({name, Clock::now(), {}, parent, request});
    return static_cast<int32_t>(records_.size() - 1);
  }

  void Close(int32_t id) {
    if (id >= 0) records_[static_cast<size_t>(id)].end = Clock::now();
  }

  /// Durations in seconds of every span called `name`.
  std::vector<double> Durations(const char* name) const {
    std::vector<double> out;
    for (const Record& record : records_) {
      if (std::strcmp(record.name, name) == 0) {
        out.push_back(SecondsBetween(record.start, record.end));
      }
    }
    return out;
  }

  /// Share of the root spans called `root` covered by their direct children
  /// (summed over all such roots); 0 when no such root was recorded.
  double Coverage(const char* root) const {
    double root_s = 0.0;
    double child_s = 0.0;
    std::vector<bool> is_root(records_.size(), false);
    for (size_t i = 0; i < records_.size(); ++i) {
      if (records_[i].parent < 0 && std::strcmp(records_[i].name, root) == 0) {
        is_root[i] = true;
        root_s += SecondsBetween(records_[i].start, records_[i].end);
      }
    }
    for (const Record& record : records_) {
      if (record.parent >= 0 && is_root[static_cast<size_t>(record.parent)]) {
        child_s += SecondsBetween(record.start, record.end);
      }
    }
    return root_s > 0.0 ? child_s / root_s : 0.0;
  }

  /// The first `limit` records, times in microseconds from the first span.
  obs::Json Dump(size_t limit) const {
    obs::Json out = obs::Json::Object();
    out.Set("recorded", static_cast<uint64_t>(records_.size()));
    obs::Json sample = obs::Json::Array();
    const Clock::time_point origin =
        records_.empty() ? Clock::time_point{} : records_.front().start;
    for (size_t i = 0; i < records_.size() && i < limit; ++i) {
      const Record& record = records_[i];
      obs::Json j = obs::Json::Object();
      j.Set("name", record.name);
      j.Set("start_us", SecondsBetween(origin, record.start) * 1e6);
      j.Set("end_us", SecondsBetween(origin, record.end) * 1e6);
      j.Set("parent", static_cast<int>(record.parent));
      j.Set("request", static_cast<uint64_t>(record.request));
      sample.Append(std::move(j));
    }
    out.Set("sample", std::move(sample));
    return out;
  }

 private:
  bool enabled_;
  std::vector<Record> records_;
};

class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, const char* name, int32_t parent, uint32_t request)
      : log_(log), id_(log.Open(name, parent, request)) {}
  ~ScopedSpan() { log_.Close(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int32_t id() const { return id_; }

 private:
  SpanLog& log_;
  int32_t id_;
};

// --- thread-pool accounting -------------------------------------------------

struct PoolSample {
  double busy_s = 0.0;
  uint64_t tasks = 0;
  uint64_t steals = 0;
  int workers = 0;
};

PoolSample SamplePool() {
  PoolSample sample;
  sample.steals = GlobalStealCounters().tasks_stolen;
  if (!ThreadPool::SharedCreated()) return sample;
  ThreadPool& pool = ThreadPool::Shared();
  for (double busy : pool.WorkerBusySeconds()) sample.busy_s += busy;
  sample.tasks = pool.tasks_executed();
  sample.workers = pool.workers();
  return sample;
}

/// Pool work accumulated over a set of timed intervals. `workers` is the
/// number of pool workers the measured calls may use (num_threads - 1: the
/// calling thread is worker 0 and is not a pool thread), so an idle
/// worker the set-up grew for other work does not dilute the ratio.
struct PoolUsage {
  explicit PoolUsage(int num_threads) : workers(std::max(num_threads - 1, 0)) {}

  int workers;
  double busy_s = 0.0;
  double wall_s = 0.0;
  uint64_t tasks = 0;
  uint64_t steals = 0;

  void Add(const PoolSample& before, const PoolSample& after, double wall) {
    busy_s += after.busy_s - before.busy_s;
    tasks += after.tasks - before.tasks;
    steals += after.steals - before.steals;
    wall_s += wall;
  }
  double BusyRatio() const {
    return workers > 0 && wall_s > 0.0 ? busy_s / (wall_s * workers) : 0.0;
  }
};

uint64_t CounterValue(const char* name) {
  for (const auto& [counter, value] :
       obs::MetricsRegistry::Global().CounterSnapshot()) {
    if (counter == name) return value;
  }
  return 0;
}

void ResetObs() {
  obs::MetricsRegistry::Global().ResetAll();
  obs::SpanRegistry::Global().ResetAll();
}

// --- replica passes ---------------------------------------------------------
//
// The per-layer numbers come from replicas of the library's public call
// sequences, with one span per stage. Each replica follows the stage order
// of the code it mirrors (Pipeline::Fit, Pipeline::PredictThroughput,
// Pipeline::NearestReferences, IncrementalIngest::Observe) using only public
// calls, and the oracles below pin its outputs bit-for-bit to the real
// calls, so a replica that drifts from the library fails the run instead of
// timing the wrong thing. Only the healthy path is replicated: the inputs
// are clean simulator telemetry, and a degraded observation is an error.

/// The fitted state Pipeline keeps after Fit().
struct ReplicaModel {
  PipelineConfig config;
  std::vector<size_t> selected;
  FeatureRanking ranking;
  NormalizationContext ctx;
  std::optional<SimilarityQueryEngine> engine;
  std::vector<std::string> reference_workloads;
  std::map<std::pair<std::string, int>, PairwiseScalingModel> pairwise;
  std::map<std::pair<std::string, int>, SingleScalingModel> single;
};

/// Pipeline::Fit, stage by stage.
Result<ReplicaModel> ReplicaFit(const PipelineConfig& config,
                                const ExperimentCorpus& reference,
                                SpanLog& log, uint32_t request) {
  if (!config.quality_gate) {
    return Status::Unimplemented("replica covers the quality-gated fit only");
  }
  ReplicaModel model;
  model.config = config;
  ScopedSpan root(log, "core.fit", -1, request);
  ExperimentCorpus gated;
  {
    ScopedSpan span(log, "telemetry.gate", root.id(), request);
    CorpusQualityReport report;
    WPRED_ASSIGN_OR_RETURN(gated,
                           GateCorpus(reference, config.quality, &report));
    if (gated.size() < 2) {
      return Status::FailedPrecondition("quality gate left < 2 experiments");
    }
  }
  AggregateObservations aggregates;
  {
    ScopedSpan span(log, "core.aggregate", root.id(), request);
    WPRED_ASSIGN_OR_RETURN(
        aggregates, BuildAggregateObservations(gated, config.subsamples));
  }
  {
    ScopedSpan span(log, "featsel.score", root.id(), request);
    WPRED_ASSIGN_OR_RETURN(std::unique_ptr<FeatureSelector> selector,
                           CreateSelector(config.selector));
    selector->set_num_threads(config.num_threads);
    WPRED_ASSIGN_OR_RETURN(
        Vector scores, selector->ScoreFeatures(aggregates.x, aggregates.labels));
    const bool mts = config.representation == Representation::kMts;
    if (mts) {
      for (size_t f = kNumResourceFeatures; f < scores.size(); ++f) {
        scores[f] = -std::numeric_limits<double>::infinity();
      }
    }
    model.ranking = ScoresToRanking(scores);
    model.selected = model.ranking.TopK(config.top_k);
    if (mts) {
      std::erase_if(model.selected,
                    [](size_t f) { return f >= kNumResourceFeatures; });
    }
  }
  std::vector<Matrix> reps;
  {
    ScopedSpan span(log, "similarity.repr_build", root.id(), request);
    model.ctx = ComputeNormalization(gated);
    WPRED_ASSIGN_OR_RETURN(
        reps, ParallelMap<Matrix>(gated.size(), config.num_threads,
                                  [&](size_t i) -> Result<Matrix> {
                                    return BuildRepresentation(
                                        config.representation, gated[i],
                                        model.selected, model.ctx);
                                  }));
  }
  {
    ScopedSpan span(log, "similarity.engine_build", root.id(), request);
    WPRED_ASSIGN_OR_RETURN(
        SimilarityQueryEngine engine,
        SimilarityQueryEngine::Build(std::move(reps), config.measure,
                                     /*window=*/0, config.num_threads,
                                     config.similarity_shard_traces,
                                     config.similarity_sketch_bins));
    model.engine = std::move(engine);
  }
  for (const Experiment& e : gated.experiments()) {
    model.reference_workloads.push_back(e.workload);
  }
  {
    ScopedSpan span(log, "predict.scaling_fit", root.id(), request);
    std::set<std::pair<std::string, int>> keys;
    for (const Experiment& e : gated.experiments()) {
      keys.insert({e.workload, e.terminals});
    }
    for (const auto& [workload, terminals] : keys) {
      WPRED_ASSIGN_OR_RETURN(
          std::vector<SkuPerfPoint> points,
          CollectScalingPoints(gated, workload, terminals, config.subsamples));
      if (DistinctSkuValues(points).size() < 2) continue;
      PairwiseScalingModel pairwise;
      WPRED_RETURN_IF_ERROR(pairwise.Fit(config.strategy, points));
      model.pairwise[{workload, terminals}] = std::move(pairwise);
      SingleScalingModel single;
      WPRED_RETURN_IF_ERROR(single.Fit(config.strategy, points));
      model.single[{workload, terminals}] = std::move(single);
    }
  }
  return model;
}

/// Pipeline's model lookup: the exact (workload, terminals) key, else the
/// closest terminal count of the same workload.
template <typename Model>
const Model* ModelFor(const std::map<std::pair<std::string, int>, Model>& models,
                      const std::string& workload, int terminals) {
  const auto exact = models.find({workload, terminals});
  if (exact != models.end()) return &exact->second;
  const Model* best = nullptr;
  int best_gap = std::numeric_limits<int>::max();
  for (const auto& [key, model] : models) {
    if (key.first != workload) continue;
    const int gap = std::abs(key.second - terminals);
    if (gap < best_gap) {
      best_gap = gap;
      best = &model;
    }
  }
  return best;
}

/// The quality gate on an observation: a repaired copy, or an error when a
/// selected feature is unusable (the degraded path is not replicated).
Result<Experiment> ReplicaRepair(const ReplicaModel& model,
                                 const Experiment& observed) {
  Experiment repaired = observed;
  WPRED_ASSIGN_OR_RETURN(const DataQualityReport report,
                         RepairExperiment(repaired, model.config.quality));
  for (size_t f : report.UnusableFeatures()) {
    if (std::find(model.selected.begin(), model.selected.end(), f) !=
        model.selected.end()) {
      return Status::Unimplemented(
          "observation needs the degraded path, which the replica skips");
    }
  }
  return repaired;
}

/// Frees the repaired copy inside its own span: for PW's 500+ query types
/// the copy's destruction is a few percent of a read, which would otherwise
/// fall between the stage spans.
void ReleaseRepaired(Experiment& repaired, SpanLog& log, int32_t parent,
                     uint32_t request) {
  ScopedSpan span(log, "telemetry.release", parent, request);
  repaired = Experiment();
}

/// Pipeline::PredictThroughput, stage by stage.
Result<Pipeline::Prediction> ReplicaPredict(const ReplicaModel& model,
                                            const Experiment& observed,
                                            int target_cpus, int num_threads,
                                            SpanLog& log, uint32_t request) {
  ScopedSpan root(log, "core.predict", -1, request);
  if (!std::isfinite(observed.perf.throughput_tps)) {
    return Status::NumericalError("observed throughput is not finite");
  }
  Experiment repaired;
  {
    ScopedSpan span(log, "telemetry.repair", root.id(), request);
    WPRED_ASSIGN_OR_RETURN(repaired, ReplicaRepair(model, observed));
  }
  Matrix rep;
  {
    ScopedSpan span(log, "similarity.repr", root.id(), request);
    WPRED_ASSIGN_OR_RETURN(
        rep, BuildRepresentation(model.config.representation, repaired,
                                 model.selected, model.ctx));
  }
  Vector distances;
  {
    ScopedSpan span(log, "similarity.distances", root.id(), request);
    WPRED_ASSIGN_OR_RETURN(distances, model.engine->Distances(rep, num_threads));
  }
  Pipeline::Prediction prediction;
  {
    ScopedSpan span(log, "core.rank", root.id(), request);
    std::map<std::string, std::pair<double, size_t>> totals;
    for (size_t i = 0; i < distances.size(); ++i) {
      auto& [sum, count] = totals[model.reference_workloads[i]];
      sum += distances[i];
      count += 1;
    }
    bool first = true;
    for (const auto& [workload, agg] : totals) {
      const double mean = agg.first / static_cast<double>(agg.second);
      // Ascending mean, ties to the smaller name: totals iterates names in
      // order, so a strict < keeps the first of equal means.
      if (first || mean < prediction.similarity_distance) {
        prediction.reference_workload = workload;
        prediction.similarity_distance = mean;
        first = false;
      }
    }
    if (first) return Status::FailedPrecondition("no reference workloads");
  }
  prediction.effective_features = model.selected;
  {
    ScopedSpan span(log, "predict.transition", root.id(), request);
    const double from = observed.cpus;
    const double to = target_cpus;
    const double perf = observed.perf.throughput_tps;
    const std::string& reference = prediction.reference_workload;
    if (model.config.context != ModelContext::kPairwise) {
      return Status::Unimplemented("replica covers pairwise models only");
    }
    const PairwiseScalingModel* pairwise =
        ModelFor(model.pairwise, reference, observed.terminals);
    if (pairwise == nullptr) return Status::NotFound("no scaling model");
    Result<double> transition = pairwise->PredictTransitionScaled(
        from, to, perf, observed.data_group);
    if (!transition.ok()) {
      const SingleScalingModel* single =
          ModelFor(model.single, reference, observed.terminals);
      if (single == nullptr) return Status::NotFound("no scaling model");
      transition =
          single->PredictTransition(from, to, perf, observed.data_group);
    }
    WPRED_ASSIGN_OR_RETURN(prediction.throughput_tps, std::move(transition));
  }
  ReleaseRepaired(repaired, log, root.id(), request);
  if (!std::isfinite(prediction.throughput_tps)) {
    return Status::NumericalError("non-finite throughput");
  }
  return prediction;
}

/// Pipeline::NearestReferences, stage by stage.
Result<std::vector<Neighbor>> ReplicaQuery(const ReplicaModel& model,
                                           const Experiment& observed,
                                           size_t k, SpanLog& log,
                                           uint32_t request) {
  ScopedSpan root(log, "core.query", -1, request);
  Experiment repaired;
  {
    ScopedSpan span(log, "telemetry.repair", root.id(), request);
    WPRED_ASSIGN_OR_RETURN(repaired, ReplicaRepair(model, observed));
  }
  Matrix rep;
  {
    ScopedSpan span(log, "similarity.repr", root.id(), request);
    WPRED_ASSIGN_OR_RETURN(
        rep, BuildRepresentation(model.config.representation, repaired,
                                 model.selected, model.ctx));
  }
  std::vector<Neighbor> neighbors;
  {
    ScopedSpan span(log, "similarity.rank", root.id(), request);
    WPRED_ASSIGN_OR_RETURN(neighbors, model.engine->RankNeighbors(rep, k));
  }
  ReleaseRepaired(repaired, log, root.id(), request);
  return neighbors;
}

/// IncrementalIngest::Observe, stage by stage, over the same public
/// building blocks (SlidingWindow, OnlineBcpdDetector, the engine's
/// AppendTraces, the refit sink).
class ReplicaIngest {
 public:
  static Result<ReplicaIngest> Create(const IngestConfig& config,
                                      std::vector<size_t> features,
                                      NormalizationContext ctx,
                                      Experiment prototype) {
    ReplicaIngest ingest;
    for (size_t f : features) {
      if (f < kNumResourceFeatures) ingest.resource_features_.push_back(f);
    }
    if (config.window_samples < 2 || ingest.resource_features_.empty()) {
      return Status::InvalidArgument("replica ingest needs a window >= 2 and "
                                     "a resource feature");
    }
    WPRED_ASSIGN_OR_RETURN(
        ingest.window_, SlidingWindow::Create(config.window_samples,
                                              std::move(ctx),
                                              config.hist_bins));
    for (size_t i = 0; i < ingest.resource_features_.size(); ++i) {
      WPRED_ASSIGN_OR_RETURN(OnlineBcpdDetector detector,
                             OnlineBcpdDetector::Create(config.bcpd));
      ingest.detectors_.push_back(std::move(detector));
    }
    ingest.config_ = config;
    ingest.features_ = std::move(features);
    ingest.prototype_ = std::move(prototype);
    return ingest;
  }

  void set_refit_sink(IncrementalIngest::RefitSink sink) {
    refit_sink_ = std::move(sink);
  }
  void set_base_corpus(ExperimentCorpus base) { base_ = std::move(base); }
  void set_reference_engine(SimilarityQueryEngine* engine) {
    reference_engine_ = engine;
  }

  Result<IngestUpdate> Observe(const Vector& sample, SpanLog& log,
                               uint32_t request) {
    ScopedSpan root(log, "stream.observe", -1, request);
    {
      ScopedSpan span(log, "stream.window", root.id(), request);
      WPRED_RETURN_IF_ERROR(window_.Push(sample));
    }
    IngestUpdate update;
    update.sample_index = window_.samples_pushed() - 1;
    {
      ScopedSpan span(log, "similarity.bcpd", root.id(), request);
      for (size_t i = 0; i < detectors_.size(); ++i) {
        const size_t f = resource_features_[i];
        const std::optional<size_t> cp = detectors_[i].Observe(
            NormalizeValue(window_.context(), f, sample[f]));
        if (!cp.has_value()) continue;
        if (!update.change_point || *cp < update.change_point_index) {
          update.change_point = true;
          update.change_point_index = *cp;
        }
        const auto it =
            std::lower_bound(recent_cps_.begin(), recent_cps_.end(), *cp);
        if (it == recent_cps_.end() || *it != *cp) {
          recent_cps_.insert(it, *cp);
          ++change_points_;
        }
      }
      const size_t window_start = window_.samples_pushed() - window_.size();
      recent_cps_.erase(recent_cps_.begin(),
                        std::lower_bound(recent_cps_.begin(),
                                         recent_cps_.end(), window_start + 1));
    }
    if (!update.change_point) return update;
    const uint64_t pushed = window_.samples_pushed();
    if (pushed - last_refit_sample_ < config_.min_refit_spacing) return update;
    const bool fire_refit =
        config_.refit_on_change_point && refit_sink_ != nullptr;
    const bool fire_append = reference_engine_ != nullptr;
    if (!fire_refit && !fire_append) return update;
    last_refit_sample_ = pushed;
    if (fire_append) {
      ScopedSpan span(log, "similarity.append", root.id(), request);
      WPRED_ASSIGN_OR_RETURN(
          Matrix trace,
          BuildRepresentation(config_.representation, WindowExperiment(),
                              features_, window_.context()));
      std::vector<Matrix> traces;
      traces.push_back(std::move(trace));
      WPRED_RETURN_IF_ERROR(reference_engine_->AppendTraces(
          std::move(traces), config_.num_threads));
      update.reference_appended = true;
    }
    if (fire_refit) {
      ScopedSpan span(log, "stream.refit_request", root.id(), request);
      ExperimentCorpus corpus = base_;
      corpus.Add(WindowExperiment());
      refit_sink_(std::move(corpus));
      update.refit_requested = true;
      ++refits_;
    }
    return update;
  }

  Experiment WindowExperiment() const {
    Experiment experiment = prototype_;
    experiment.resource.values = window_.Rows();
    return experiment;
  }

  const SlidingWindow& window() const { return window_; }
  uint64_t change_points_detected() const { return change_points_; }
  uint64_t refits_requested() const { return refits_; }

 private:
  ReplicaIngest() = default;

  IngestConfig config_;
  std::vector<size_t> features_;
  std::vector<size_t> resource_features_;
  Experiment prototype_;
  SlidingWindow window_;
  std::vector<OnlineBcpdDetector> detectors_;
  ExperimentCorpus base_;
  IncrementalIngest::RefitSink refit_sink_;
  SimilarityQueryEngine* reference_engine_ = nullptr;
  std::vector<size_t> recent_cps_;
  uint64_t change_points_ = 0;
  uint64_t refits_ = 0;
  uint64_t last_refit_sample_ = 0;
};

// --- inputs -----------------------------------------------------------------

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string json_path;
  bool smoke = false;
};

/// An experiment grid, enumerated in GenerateCorpus order.
struct Grid {
  std::vector<std::string> workloads;
  std::vector<int> cpus;
  std::vector<int> terminals;
  int runs = 1;
};

/// Input sizes. The full sizes are what BENCHMARK.json measures; --smoke
/// shrinks everything so all three workloads and every check finish in a
/// few seconds.
struct Sizes {
  Grid reference;  // paper_fit and dtw_query reference corpus
  Grid live_base;  // live_loop's initial service corpus
  SimConfig sim;
  int setup_reps = 3;
  int live_setup_reps = 5;  // live_loop's set-up is ~5x cheaper
  int heldout_runs = 8;  // per held-out workload
  size_t stream_window = 240;
  double ingest_rate_hz = 400.0;
  double read_rate_hz = 1000.0;
  int sim_threads = 4;
};

Sizes MakeSizes(bool smoke) {
  Sizes sizes;
  sizes.sim.sample_period_s = 0.5;
  if (!smoke) {
    // {TPC-C, Twitter, TPC-H, TPC-DS} x {2,4,8,16} CPUs x {4,8,32}
    // terminals x 3 runs: 96 experiments (the serial-only analytical
    // workloads collapse the terminal axis), 240 samples each.
    sizes.reference = {{"TPC-C", "Twitter", "TPC-H", "TPC-DS"},
                       {2, 4, 8, 16},
                       {4, 8, 32},
                       3};
    sizes.live_base = {{"TPC-C", "Twitter", "TPC-H"}, {2, 8}, {8}, 3};
    sizes.sim.duration_s = 120.0;
    return sizes;
  }
  sizes.reference = {{"TPC-C", "Twitter", "TPC-H"}, {2, 8}, {8}, 2};
  sizes.live_base = sizes.reference;
  sizes.sim.duration_s = 30.0;
  sizes.setup_reps = 1;
  sizes.live_setup_reps = 1;
  sizes.heldout_runs = 1;
  sizes.stream_window = 48;
  return sizes;
}

struct Coordinate {
  std::string workload;
  int cpus;
  int terminals;
  int run;
};

std::vector<Coordinate> GridCoordinates(const Grid& grid) {
  std::vector<Coordinate> out;
  for (const std::string& workload : grid.workloads) {
    const WorkloadSpec spec = Must(WorkloadByName(workload), "workload spec");
    const std::vector<int> terminals =
        spec.serial_only ? std::vector<int>{1} : grid.terminals;
    for (int cpus : grid.cpus) {
      for (int t : terminals) {
        for (int run = 0; run < grid.runs; ++run) {
          out.push_back({workload, cpus, t, run});
        }
      }
    }
  }
  return out;
}

/// The reference corpora are the benchmark's fixed data set: the
/// workbench's default seed, whatever --seed says. With a 96-experiment
/// grid the selected features would otherwise change from seed to seed, and
/// every timing with them. --seed drives the traffic instead: held-out
/// observations, queries, and the streamed telemetry.
const uint64_t kReferenceSeed = WorkbenchConfig{}.base_seed;

/// SplitMix64 of (seed, stream): independent simulator seeds per input set.
uint64_t SeedFor(uint64_t seed, uint64_t stream) {
  uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (stream + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Simulates every coordinate with the workbench's deterministic seeding on
/// the shared pool. Pool task t runs coordinates t, t+T, t+2T, ...: run
/// costs differ by two orders of magnitude across workloads and terminal
/// counts, and striding spreads every kind over all tasks, while a fixed
/// assignment keeps each thread's allocations (and so peak RSS) the same
/// from run to run. Results land in their coordinate's slot, so the corpus
/// does not depend on the thread count.
std::vector<Experiment> Simulate(const std::vector<Coordinate>& coordinates,
                                 const Sizes& sizes, uint64_t base_seed) {
  const size_t tasks = static_cast<size_t>(sizes.sim_threads);
  std::vector<Experiment> out(coordinates.size());
  Must(ParallelFor(tasks, sizes.sim_threads,
                   [&](size_t t) -> Status {
                     for (size_t i = t; i < coordinates.size(); i += tasks) {
                       const Coordinate& c = coordinates[i];
                       WPRED_ASSIGN_OR_RETURN(
                           out[i], RunOne(c.workload, MakeCpuSku(c.cpus),
                                          c.terminals, c.run, sizes.sim,
                                          base_seed));
                     }
                     return Status::OK();
                   }),
       "simulate");
  return out;
}

/// Everything one run produces.
struct RunContext {
  RunContext(const Options& options_in, const Sizes& sizes_in)
      : options(options_in), sizes(sizes_in), log(options_in.trace) {}

  const Options& options;
  const Sizes& sizes;
  SpanLog log;
  Checks checks;
  Metrics metrics;
  obs::Json deterministic = obs::Json::Object();
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint32_t next_request = 1;

  bool trace() const { return options.trace; }
  /// Per-layer metrics start at 0; each workload fills what it exercises.
  void InitPerLayer() {
    for (const MetricSpec& spec : kPerLayer) metrics.Set(spec.name, 0.0, spec.unit, 0);
  }
  void SetFromSpans(const char* metric, const char* span, double scale,
                    const char* unit) {
    const std::vector<double> d = log.Durations(span);
    if (!d.empty()) metrics.Set(metric, Median(d) * scale, unit, d.size());
  }
};

/// Runs `setup` `reps` times (each rep rebuilds everything from
/// the seed, after the previous rep's state is released) and records the
/// median as setup_s. In traced runs obs is on during set-up so the
/// simulator's event counter is available.
template <typename State>
std::unique_ptr<State> TimedSetups(
    RunContext& run, int reps,
    const std::function<std::unique_ptr<State>(double*)>& setup) {
  std::vector<double> setup_s;
  std::vector<double> generate_s;
  std::unique_ptr<State> state;
  for (int rep = 0; rep < reps; ++rep) {
    state.reset();
    ResetObs();
    obs::SetMetricsEnabled(run.trace());
    double generate = 0.0;
    const Clock::time_point start = Clock::now();
    state = setup(&generate);
    setup_s.push_back(SecondsSince(start));
    generate_s.push_back(generate);
  }
  run.metrics.Set("setup_s", Median(setup_s), "s", setup_s.size());
  if (run.trace()) {
    run.metrics.Set("sim.generate_s", Median(generate_s), "s",
                    generate_s.size());
    run.metrics.Set("sim.events",
                    static_cast<double>(CounterValue("sim.events_processed")),
                    "count", 1);
  }
  obs::SetMetricsEnabled(false);
  ResetObs();
  return state;
}

std::string JoinFeatures(const std::vector<size_t>& features) {
  std::string out;
  for (size_t f : features) {
    if (!out.empty()) out += ",";
    out += std::to_string(f);
  }
  return out;
}

// --- shared measurement loops -----------------------------------------------

/// Timed cold fits until `budget_s` has passed (at least three). In traced
/// runs every real fit is followed by a traced replica fit, so the replica's
/// stage spans see the same conditions.
std::vector<double> RunBuildLoop(RunContext& run, double budget_s,
                                 const PipelineConfig& config,
                                 const ExperimentCorpus& corpus,
                                 const std::vector<size_t>& selection,
                                 PoolUsage& pool) {
  std::vector<double> fit_s;
  const Clock::time_point start = Clock::now();
  while (fit_s.size() < 3 || SecondsSince(start) < budget_s) {
    Pipeline fresh(config);
    const PoolSample before = SamplePool();
    const Clock::time_point t = Clock::now();
    const Status status = fresh.Fit(corpus);
    const double dt = SecondsSince(t);
    pool.Add(before, SamplePool(), dt);
    ++run.attempted;
    if (!status.ok()) {
      ++run.failed;
      std::fprintf(stderr, "fit failed: %s\n", status.ToString().c_str());
      break;
    }
    fit_s.push_back(dt);
    if (fresh.selected_features() != selection) {
      run.checks.Expect(false, "a timed fit selected different features");
    }
    if (run.trace()) {
      const Result<ReplicaModel> traced =
          ReplicaFit(config, corpus, run.log, run.next_request++);
      if (!traced.ok()) run.checks.Expect(false, "traced replica fit failed");
    }
  }
  return fit_s;
}

/// What a closed-loop read phase measured: latencies of the real calls
/// (obs off) and, in traced runs, of the traced replica calls interleaved
/// with them block by block.
struct ReadLoop {
  std::vector<double> real_s;
  std::vector<double> traced_s;
  double real_wall_s = 0.0;
};

/// One closed-loop client until `deadline` (and at least two blocks).
/// `real(i)` and `traced(i, request)` run one call on input i and return
/// false when the call failed; output checks happen inside them.
ReadLoop RunReadLoop(RunContext& run, Clock::time_point deadline, size_t block,
                     const std::function<bool(size_t)>& real,
                     const std::function<bool(size_t, uint32_t)>& traced) {
  ReadLoop loop;
  size_t next = 0;
  while (loop.real_s.size() < 2 * block || Clock::now() < deadline) {
    const Clock::time_point block_start = Clock::now();
    for (size_t b = 0; b < block; ++b) {
      const Clock::time_point t = Clock::now();
      const bool ok = real(next + b);
      const double dt = SecondsSince(t);
      ++run.attempted;
      if (ok) {
        loop.real_s.push_back(dt);
      } else {
        ++run.failed;
      }
    }
    loop.real_wall_s += SecondsSince(block_start);
    if (run.trace()) {
      obs::SetMetricsEnabled(true);
      for (size_t b = 0; b < block; ++b) {
        const Clock::time_point t = Clock::now();
        const bool ok = traced(next + b, run.next_request++);
        const double dt = SecondsSince(t);
        ++run.attempted;
        if (ok) {
          loop.traced_s.push_back(dt);
        } else {
          ++run.failed;
        }
      }
      obs::SetMetricsEnabled(false);
    }
    next += block;
  }
  return loop;
}

/// Fit-stage medians and fit coverage from the traced replica fits.
void SetFitStageMetrics(RunContext& run) {
  run.SetFromSpans("telemetry.gate_s", "telemetry.gate", 1.0, "s");
  run.SetFromSpans("core.aggregate_s", "core.aggregate", 1.0, "s");
  run.SetFromSpans("featsel.score_s", "featsel.score", 1.0, "s");
  run.SetFromSpans("similarity.repr_build_s", "similarity.repr_build", 1.0,
                   "s");
  run.SetFromSpans("similarity.engine_build_s", "similarity.engine_build", 1.0,
                   "s");
  run.SetFromSpans("predict.scaling_fit_s", "predict.scaling_fit", 1.0, "s");
  run.metrics.Set("core.fit_coverage", run.log.Coverage("core.fit"), "ratio",
                  run.log.Durations("core.fit").size());
}

void SetBuildMetrics(RunContext& run, const std::vector<double>& fit_s,
                     const PoolUsage& pool) {
  run.metrics.Set("build_ms", Median(fit_s) * 1e3, "ms", fit_s.size());
  if (!run.trace()) return;
  SetFitStageMetrics(run);
  const double builds = static_cast<double>(std::max<size_t>(fit_s.size(), 1));
  run.metrics.Set("parallel.busy_ratio", pool.BusyRatio(), "ratio",
                  fit_s.size());
  run.metrics.Set("parallel.tasks", static_cast<double>(pool.tasks) / builds,
                  "count", fit_s.size());
  run.metrics.Set("parallel.steals", static_cast<double>(pool.steals) / builds,
                  "count", fit_s.size());
}

void SetReadMetrics(RunContext& run, const ReadLoop& loop,
                    const char* root_span) {
  run.metrics.Set("read_p50_us", Median(loop.real_s) * 1e6, "us",
                  loop.real_s.size());
  run.metrics.Set("reads_per_s",
                  static_cast<double>(loop.real_s.size()) / loop.real_wall_s,
                  "1/s", loop.real_s.size());
  SetTail(run.metrics, "read", loop.real_s, 1e6, "us");
  if (!run.trace()) return;
  run.SetFromSpans("telemetry.repair_us", "telemetry.repair", 1e6, "us");
  run.SetFromSpans("similarity.repr_us", "similarity.repr", 1e6, "us");
  run.SetFromSpans("similarity.distances_us", "similarity.distances", 1e6,
                   "us");
  run.SetFromSpans("predict.transition_us", "predict.transition", 1e6, "us");
  run.SetFromSpans("similarity.rank_us", "similarity.rank", 1e6, "us");
  run.metrics.Set("core.predict_coverage", run.log.Coverage(root_span),
                  "ratio", run.log.Durations(root_span).size());
  run.metrics.Set("obs.trace_overhead_ratio",
                  Median(loop.traced_s) / Median(loop.real_s), "ratio",
                  loop.traced_s.size());
}

// --- paper_fit --------------------------------------------------------------

constexpr int kFromCpus = 2;
constexpr int kToCpus = 8;

struct PaperFitState {
  ExperimentCorpus corpus;
  std::vector<Experiment> observed;  // held-out runs at kFromCpus
  std::vector<double> truth;         // the same runs' throughput at kToCpus
  std::unique_ptr<Pipeline> pipeline;
};

void RunPaperFit(RunContext& run) {
  PipelineConfig config;  // the paper's end-to-end defaults
  config.num_threads = 4;
  const Sizes& sizes = run.sizes;
  const uint64_t seed = run.options.seed;

  const std::unique_ptr<PaperFitState> state = TimedSetups<PaperFitState>(
      run, sizes.setup_reps, [&](double* generate_s) {
        auto s = std::make_unique<PaperFitState>();
        const Clock::time_point start = Clock::now();
        s->corpus = ExperimentCorpus(
            Simulate(GridCoordinates(sizes.reference), sizes, kReferenceSeed));
        std::vector<Coordinate> heldout;
        for (const char* workload : {"YCSB", "PW"}) {
          for (int r = 0; r < sizes.heldout_runs; ++r) {
            heldout.push_back({workload, kFromCpus, 8, r});
            heldout.push_back({workload, kToCpus, 8, r});
          }
        }
        std::vector<Experiment> sims =
            Simulate(heldout, sizes, SeedFor(seed, 2));
        for (size_t i = 0; i + 1 < sims.size(); i += 2) {
          s->truth.push_back(sims[i + 1].perf.throughput_tps);
          s->observed.push_back(std::move(sims[i]));
        }
        *generate_s = SecondsSince(start);
        s->pipeline = std::make_unique<Pipeline>(config);
        Must(s->pipeline->Fit(s->corpus), "paper_fit set-up fit");
        return s;
      });
  const Pipeline& pipeline = *state->pipeline;
  const std::vector<size_t>& selection = pipeline.selected_features();

  // Oracles: the replica reproduces Pipeline's selection and predictions
  // bit for bit, and the serial path reproduces the 4-thread one.
  SpanLog quiet(false);
  const ReplicaModel replica =
      Must(ReplicaFit(config, state->corpus, quiet, 0), "replica fit");
  run.checks.Expect(replica.selected == selection,
                    "replica selects the same features as Pipeline");
  PipelineConfig serial_config = config;
  serial_config.num_threads = 1;
  Pipeline serial(serial_config);
  Must(serial.Fit(state->corpus), "serial fit");
  std::vector<Pipeline::Prediction> expected;
  Digest digest;
  double squared_error = 0.0;
  double truth_sum = 0.0;
  for (size_t i = 0; i < state->observed.size(); ++i) {
    const Experiment& observed = state->observed[i];
    expected.push_back(Must(pipeline.PredictThroughput(observed, kToCpus),
                            "oracle prediction"));
    const Pipeline::Prediction& want = expected.back();
    const Result<Pipeline::Prediction> replayed = ReplicaPredict(
        replica, observed, kToCpus, config.num_threads, quiet, 0);
    run.checks.Expect(replayed.ok() &&
                          SameBits(replayed->throughput_tps,
                                   want.throughput_tps) &&
                          replayed->reference_workload ==
                              want.reference_workload,
                      "replica prediction is bit-equal to Pipeline's");
    const Result<Pipeline::Prediction> one_thread =
        serial.PredictThroughput(observed, kToCpus);
    run.checks.Expect(one_thread.ok() && SameBits(one_thread->throughput_tps,
                                                  want.throughput_tps),
                      "num_threads=1 prediction is bit-equal to 4 threads");
    digest.AddDouble(want.throughput_tps);
    digest.AddString(want.reference_workload);
    const double error = want.throughput_tps - state->truth[i];
    squared_error += error * error;
    truth_sum += state->truth[i];
  }
  const double n_obs = static_cast<double>(state->observed.size());
  run.deterministic.Set("selected_features", JoinFeatures(selection));
  run.deterministic.Set("prediction_digest", digest.Hex());
  run.deterministic.Set("prediction_nrmse",
                        std::sqrt(squared_error / n_obs) / (truth_sum / n_obs));

  // Reads run pinned to one thread, as the serving layer pins them
  // (results are bit-identical, checked against `expected` on every call).
  // At num_threads=4 each read hands a few microseconds of L2,1 scan to the
  // pool and waits for a worker to wake, which makes reads slower and their
  // run-to-run spread too wide to gate.
  state->pipeline->set_num_threads(1);

  // Measured window: half cold fits, half closed-loop predictions.
  const Clock::time_point window = Clock::now();
  PoolUsage pool(config.num_threads);
  const std::vector<double> fit_s = RunBuildLoop(
      run, 0.5 * run.options.seconds, config, state->corpus, selection, pool);
  const size_t n = state->observed.size();
  const ReadLoop loop = RunReadLoop(
      run,
      window + std::chrono::duration_cast<Clock::duration>(
                   std::chrono::duration<double>(run.options.seconds)),
      32,
      [&](size_t i) {
        const Result<Pipeline::Prediction> p =
            pipeline.PredictThroughput(state->observed[i % n], kToCpus);
        if (!p.ok()) return false;
        if (!SameBits(p->throughput_tps, expected[i % n].throughput_tps)) {
          run.checks.Expect(false, "timed prediction differs from the oracle");
        }
        return true;
      },
      [&](size_t i, uint32_t request) {
        const Result<Pipeline::Prediction> p =
            ReplicaPredict(replica, state->observed[i % n], kToCpus,
                           /*num_threads=*/1, run.log, request);
        if (!p.ok()) return false;
        if (!SameBits(p->throughput_tps, expected[i % n].throughput_tps)) {
          run.checks.Expect(false, "traced prediction differs from the oracle");
        }
        return true;
      });
  SetBuildMetrics(run, fit_s, pool);
  SetReadMetrics(run, loop, "core.predict");
}

// --- dtw_query --------------------------------------------------------------

constexpr size_t kNeighbors = 5;

struct DtwState {
  ExperimentCorpus corpus;
  std::vector<Experiment> queries;
  std::unique_ptr<Pipeline> pipeline;
};

void RunDtwQuery(RunContext& run) {
  PipelineConfig config;
  config.selector = "fANOVA";  // keeps the fit cheap; the cascade is the load
  config.representation = Representation::kMts;
  config.measure = "Dependent-DTW";
  config.num_threads = 4;
  const Sizes& sizes = run.sizes;
  const uint64_t seed = run.options.seed;

  const std::unique_ptr<DtwState> state = TimedSetups<DtwState>(
      run, sizes.setup_reps, [&](double* generate_s) {
        auto s = std::make_unique<DtwState>();
        const Clock::time_point start = Clock::now();
        s->corpus = ExperimentCorpus(
            Simulate(GridCoordinates(sizes.reference), sizes, kReferenceSeed));
        // Three familiar workloads and one novel one (PW, ~3x the cascade
        // work), interleaved so every block of the loop sees the same mix.
        std::vector<Coordinate> queries;
        for (int r = 0; r < sizes.heldout_runs; ++r) {
          for (const char* workload : {"YCSB", "PW", "TPC-C", "Twitter"}) {
            queries.push_back({workload, 4, 8, 3 + r});
          }
        }
        s->queries = Simulate(queries, sizes, SeedFor(seed, 3));
        *generate_s = SecondsSince(start);
        s->pipeline = std::make_unique<Pipeline>(config);
        Must(s->pipeline->Fit(s->corpus), "dtw_query set-up fit");
        return s;
      });
  const Pipeline& pipeline = *state->pipeline;
  const std::vector<size_t>& selection = pipeline.selected_features();

  // Oracle: the pruned top-k equals a stable (distance, index) argsort of
  // the replica engine's exhaustive distances, for every query.
  SpanLog quiet(false);
  const ReplicaModel replica =
      Must(ReplicaFit(config, state->corpus, quiet, 0), "replica fit");
  run.checks.Expect(replica.selected == selection,
                    "replica selects the same features as Pipeline");
  std::vector<std::vector<Neighbor>> expected;
  Digest digest;
  for (const Experiment& query : state->queries) {
    expected.push_back(Must(pipeline.NearestReferences(query, kNeighbors),
                            "oracle query"));
    const Experiment repaired = Must(ReplicaRepair(replica, query), "repair");
    const Matrix rep = Must(BuildRepresentation(config.representation,
                                                repaired, replica.selected,
                                                replica.ctx),
                            "query representation");
    const Vector distances = Must(replica.engine->Distances(rep, 1),
                                  "exhaustive distances");
    std::vector<Neighbor> ranked(distances.size());
    for (size_t i = 0; i < distances.size(); ++i) ranked[i] = {i, distances[i]};
    std::stable_sort(ranked.begin(), ranked.end(),
                     [](const Neighbor& a, const Neighbor& b) {
                       return a.distance < b.distance;
                     });
    ranked.resize(std::min(kNeighbors, ranked.size()));
    run.checks.Expect(ranked == expected.back(),
                      "NearestReferences equals the exhaustive argsort");
    for (const Neighbor& neighbor : expected.back()) {
      digest.Add(neighbor.index);
      digest.AddDouble(neighbor.distance);
    }
  }
  run.deterministic.Set("selected_features", JoinFeatures(selection));
  run.deterministic.Set("neighbor_digest", digest.Hex());

  // Measured window: a fifth cold fits, the rest closed-loop queries.
  const Clock::time_point window = Clock::now();
  PoolUsage pool(config.num_threads);
  const std::vector<double> fit_s = RunBuildLoop(
      run, 0.2 * run.options.seconds, config, state->corpus, selection, pool);
  const size_t n = state->queries.size();
  ResetObs();
  const ReadLoop loop = RunReadLoop(
      run,
      window + std::chrono::duration_cast<Clock::duration>(
                   std::chrono::duration<double>(run.options.seconds)),
      n,
      [&](size_t i) {
        const Result<std::vector<Neighbor>> hits =
            pipeline.NearestReferences(state->queries[i % n], kNeighbors);
        if (!hits.ok()) return false;
        if (*hits != expected[i % n]) {
          run.checks.Expect(false, "timed query differs from the oracle");
        }
        return true;
      },
      [&](size_t i, uint32_t request) {
        const Result<std::vector<Neighbor>> hits = ReplicaQuery(
            replica, state->queries[i % n], kNeighbors, run.log, request);
        if (!hits.ok()) return false;
        if (*hits != expected[i % n]) {
          run.checks.Expect(false, "traced query differs from the oracle");
        }
        return true;
      });
  SetBuildMetrics(run, fit_s, pool);
  SetReadMetrics(run, loop, "core.query");
  if (run.trace() && !loop.traced_s.empty()) {
    // Cascade counters, recorded only while the traced replica queries ran.
    const double queries = static_cast<double>(loop.traced_s.size());
    const double candidates =
        static_cast<double>(CounterValue("similarity.query.candidates"));
    const double exact = static_cast<double>(CounterValue("similarity.query.exact"));
    const auto share = [](double part, double whole) {
      return whole > 0.0 ? part / whole : 0.0;
    };
    const uint64_t nq = loop.traced_s.size();
    run.metrics.Set("similarity.candidates_per_query", candidates / queries,
                    "count", nq);
    run.metrics.Set(
        "similarity.sketch_prune_ratio",
        share(static_cast<double>(CounterValue("similarity.sketch.pruned")),
              candidates),
        "ratio", nq);
    run.metrics.Set(
        "similarity.lb_prune_ratio",
        share(static_cast<double>(CounterValue("similarity.lb.kim_pruned") +
                                  CounterValue("similarity.lb.keogh_pruned")),
              candidates),
        "ratio", nq);
    run.metrics.Set("similarity.exact_ratio", share(exact, candidates),
                    "ratio", nq);
    run.metrics.Set(
        "similarity.abandon_ratio",
        share(static_cast<double>(
                  CounterValue("similarity.dtw.abandoned_candidates")),
              exact),
        "ratio", nq);
    run.metrics.Set(
        "similarity.dtw_cells_per_query",
        static_cast<double>(CounterValue("similarity.dtw.cells_in_band")) /
            queries,
        "count", nq);
  }
}

// --- live_loop --------------------------------------------------------------

struct LiveState {
  ExperimentCorpus base;
  std::vector<Experiment> stream;  // one run per streamed workload
  std::vector<Experiment> reads;   // held-out observations the reader asks
  std::unique_ptr<PredictionService> service;
};

/// Everything an ingest needs besides the service.
struct IngestSetup {
  IngestConfig config;
  std::vector<size_t> features;
  std::vector<size_t> resource_features;
  NormalizationContext ctx;
  Experiment prototype;
  const ExperimentCorpus* base = nullptr;
  std::vector<Vector> rows;  // replayed cyclically
};

/// The library's IncrementalIngest or the traced replica, each growing its
/// own reference engine.
class LiveIngest {
 public:
  LiveIngest(const IngestSetup& setup, SpanLog* replica_log)
      : setup_(setup), log_(replica_log) {
    std::vector<Matrix> reps;
    for (const Experiment& e : setup.base->experiments()) {
      reps.push_back(Must(BuildRepresentation(setup.config.representation, e,
                                              setup.features, setup.ctx),
                          "reference representation"));
    }
    engine_ = std::make_unique<SimilarityQueryEngine>(
        Must(SimilarityQueryEngine::Build(std::move(reps), "L2,1-Norm", 0, 1),
             "append engine"));
    if (log_ != nullptr) {
      replica_.emplace(Must(ReplicaIngest::Create(setup.config, setup.features,
                                                  setup.ctx, setup.prototype),
                            "replica ingest"));
      replica_->set_base_corpus(*setup.base);
      replica_->set_reference_engine(engine_.get());
    } else {
      real_.emplace(Must(IncrementalIngest::Create(setup.config, setup.features,
                                                   setup.ctx, setup.prototype),
                         "ingest"));
      real_->set_base_corpus(*setup.base);
      real_->set_reference_engine(engine_.get());
    }
  }

  void set_refit_sink(IncrementalIngest::RefitSink sink) {
    if (real_) real_->set_refit_sink(std::move(sink));
    if (replica_) replica_->set_refit_sink(std::move(sink));
  }

  Result<IngestUpdate> Observe(const Vector& row, uint32_t request) {
    return real_ ? real_->Observe(row) : replica_->Observe(row, *log_, request);
  }

  uint64_t change_points() const {
    return real_ ? real_->change_points_detected()
                 : replica_->change_points_detected();
  }
  uint64_t refits() const {
    return real_ ? real_->refits_requested() : replica_->refits_requested();
  }
  Experiment WindowExperiment() const {
    return real_ ? real_->WindowExperiment() : replica_->WindowExperiment();
  }

  /// The window's incremental Hist-FP equals a batch build over its rows.
  bool WindowMatchesBatch() const {
    const SlidingWindow& window = real_ ? real_->window() : replica_->window();
    const Result<Matrix> incremental = window.HistFp(setup_.resource_features);
    const Result<Matrix> batch = BuildHistFp(
        WindowExperiment(), setup_.resource_features, window.context());
    return incremental.ok() && batch.ok() && *incremental == *batch;
  }

 private:
  const IngestSetup& setup_;
  SpanLog* log_;
  std::unique_ptr<SimilarityQueryEngine> engine_;
  std::optional<IncrementalIngest> real_;
  std::optional<ReplicaIngest> replica_;
};

/// Change points go into a digest that must repeat exactly run to run.
void AddToDigest(Digest& digest, const IngestUpdate& update) {
  if (!update.change_point) return;
  digest.Add(update.sample_index);
  digest.Add(update.change_point_index);
}

struct OfflinePass {
  std::string digest;
  std::vector<double> observe_s;
  bool ok = true;
  bool window_matches_batch = false;
};

/// Ingests `samples` rows back to back into one ingest per entry of
/// `replica_logs` (nullptr: the library's IncrementalIngest; otherwise the
/// traced replica, with obs on around its calls), in lockstep and rotating
/// which goes first, so their timings are paired sample by sample. No
/// service is attached: refit requests go to a sink that drops them.
std::vector<OfflinePass> RunOfflinePasses(
    const IngestSetup& setup, size_t samples,
    const std::vector<SpanLog*>& replica_logs) {
  const size_t n = replica_logs.size();
  std::vector<std::unique_ptr<LiveIngest>> ingests;
  for (SpanLog* log : replica_logs) {
    ingests.push_back(std::make_unique<LiveIngest>(setup, log));
    ingests.back()->set_refit_sink([](ExperimentCorpus) {});
  }
  std::vector<OfflinePass> passes(n);
  std::vector<Digest> digests(n);
  for (OfflinePass& pass : passes) pass.observe_s.reserve(samples);
  for (size_t i = 0; i < samples; ++i) {
    const Vector& row = setup.rows[i % setup.rows.size()];
    for (size_t k = 0; k < n; ++k) {
      const size_t j = (i + k) % n;
      if (!passes[j].ok) continue;
      const bool traced = replica_logs[j] != nullptr;
      obs::SetMetricsEnabled(traced);
      const Clock::time_point t = Clock::now();
      const Result<IngestUpdate> update =
          ingests[j]->Observe(row, static_cast<uint32_t>(i));
      passes[j].observe_s.push_back(SecondsSince(t));
      obs::SetMetricsEnabled(false);
      if (!update.ok()) {
        passes[j].ok = false;
        continue;
      }
      AddToDigest(digests[j], *update);
    }
  }
  for (size_t j = 0; j < n; ++j) {
    passes[j].digest = digests[j].Hex();
    passes[j].window_matches_batch = ingests[j]->WindowMatchesBatch();
  }
  return passes;
}

/// Request, attempt and publish times of the background refits. Requests
/// come from the ingest thread's sink, attempt starts from the service's
/// per-attempt hook (which runs after the supervisor dequeued the newest
/// corpus, so every request made before it is served by that attempt), and
/// publishes from the reader noticing an epoch bump.
struct RefitTimeline {
  std::mutex mu;
  std::vector<Clock::time_point> requests;
  std::vector<std::pair<Clock::time_point, size_t>> attempts;  // start, served
  std::vector<std::pair<Clock::time_point, uint64_t>> bumps;   // seen, epoch
};

/// Waits until `due`: sleeps to ~200 us before it, then spins. A sleep
/// alone wakes tens of microseconds late and on a cold core, which would
/// dominate a ~30 us Observe and blur a ~50 us read.
void SleepThenSpin(Clock::time_point due) {
  constexpr auto kSpinMargin = std::chrono::microseconds(200);
  if (due - Clock::now() > kSpinMargin) {
    std::this_thread::sleep_until(due - kSpinMargin);
  }
  while (Clock::now() < due) {
  }
}

struct ReaderStats {
  std::vector<double> latency_s;
  uint64_t failed = 0;
  uint64_t wrong = 0;
  double wall_s = 0.0;
};

void RunLiveLoop(RunContext& run) {
  PipelineConfig config;  // paper defaults, as served
  config.incremental_refit = true;
  config.num_threads = 2;
  const Sizes& sizes = run.sizes;
  const uint64_t seed = run.options.seed;
  const int target_cpus = kToCpus;

  const std::unique_ptr<LiveState> state = TimedSetups<LiveState>(
      run, sizes.live_setup_reps, [&](double* generate_s) {
        auto s = std::make_unique<LiveState>();
        const Clock::time_point start = Clock::now();
        s->base = ExperimentCorpus(
            Simulate(GridCoordinates(sizes.live_base), sizes, kReferenceSeed));
        std::vector<Coordinate> stream;
        for (const char* workload :
             {"TPC-C", "Twitter", "TPC-H", "TPC-DS", "YCSB", "PW"}) {
          stream.push_back({workload, 4, 8, 0});
        }
        s->stream = Simulate(stream, sizes, SeedFor(seed, 5));
        std::vector<Coordinate> reads;
        for (int r = 0; r < sizes.heldout_runs; ++r) {
          reads.push_back({"YCSB", kFromCpus, 8, r});
        }
        s->reads = Simulate(reads, sizes, SeedFor(seed, 6));
        *generate_s = SecondsSince(start);
        ServiceConfig service_config;
        service_config.pipeline = config;
        s->service = std::make_unique<PredictionService>(service_config);
        Must(s->service->Start(s->base), "service start");
        return s;
      });
  PredictionService& service = *state->service;

  // Oracle: a serve read is bit-equal to the same pipeline fitted directly
  // (the snapshot's fit is deterministic), and pinned to one thread like
  // the snapshot's read path.
  Pipeline direct(config);
  Must(direct.Fit(state->base), "direct fit");
  direct.set_num_threads(1);
  for (const Experiment& read : state->reads) {
    const Result<Pipeline::Prediction> served =
        service.Predict(read, target_cpus);
    const Result<Pipeline::Prediction> fitted =
        direct.PredictThroughput(read, target_cpus);
    run.checks.Expect(served.ok() && fitted.ok() &&
                          SameBits(served->throughput_tps,
                                   fitted->throughput_tps),
                      "serve read is bit-equal to the pipeline read");
  }
  if (run.trace()) {
    // Read-path overhead of serve over the bare pipeline, same snapshot
    // contents, no refit running.
    std::vector<double> served_s;
    std::vector<double> direct_s;
    // Both calls are checked by the oracle above. The order alternates so
    // neither side always runs on caches the other just warmed.
    const auto time_served = [&](const Experiment& read) {
      const Clock::time_point t = Clock::now();
      (void)service.Predict(read, target_cpus);
      served_s.push_back(SecondsSince(t));
    };
    const auto time_direct = [&](const Experiment& read) {
      const Clock::time_point t = Clock::now();
      (void)direct.PredictThroughput(read, target_cpus);
      direct_s.push_back(SecondsSince(t));
    };
    for (size_t i = 0; i < 400; ++i) {
      const Experiment& read = state->reads[(i / 2) % state->reads.size()];
      if (i % 2 == 0) {
        time_served(read);
        time_direct(read);
      } else {
        time_direct(read);
        time_served(read);
      }
    }
    run.metrics.Set("serve.read_overhead_us",
                    (Median(served_s) - Median(direct_s)) * 1e6, "us",
                    served_s.size());
  }

  // The ingest watches the served model's selection and normalisation. The
  // streamed server is registered as one more TPC-C repetition, so every
  // refit corpus keeps a scaling model for any workload a read can match.
  IngestSetup setup;
  setup.config.window_samples = sizes.stream_window;
  setup.config.num_threads = 1;
  setup.features = direct.selected_features();
  for (size_t f : setup.features) {
    if (f < kNumResourceFeatures) setup.resource_features.push_back(f);
  }
  setup.ctx = direct.normalization();
  setup.prototype = state->base[0];
  setup.prototype.run_id = sizes.live_base.runs;
  setup.base = &state->base;
  for (const Experiment& e : state->stream) {
    for (size_t r = 0; r < e.resource.values.rows(); ++r) {
      setup.rows.push_back(e.resource.values.Row(r));
    }
  }
  const size_t samples = static_cast<size_t>(
      std::max(1.0, std::round(sizes.ingest_rate_hz * run.options.seconds)));

  // Oracles: two library ingests fed the same rows find the same change
  // points, the incremental window equals a batch Hist-FP build, and in
  // traced runs the replica finds them too (its paired timings against the
  // library's give the trace overhead).
  SpanLog offline_log(true);
  std::vector<SpanLog*> offline_logs = {nullptr, nullptr};
  if (run.trace()) offline_logs.push_back(&offline_log);
  const std::vector<OfflinePass> passes =
      RunOfflinePasses(setup, samples, offline_logs);
  const OfflinePass& first = passes[0];
  run.checks.Expect(first.ok && passes[1].ok, "offline ingest passes succeed");
  run.checks.Expect(first.digest == passes[1].digest,
                    "change-point digest repeats exactly");
  run.checks.Expect(first.window_matches_batch,
                    "window Hist-FP equals BuildHistFp(WindowExperiment())");
  run.deterministic.Set("selected_features", JoinFeatures(setup.features));
  run.deterministic.Set("change_point_digest", first.digest);
  if (run.trace()) {
    const OfflinePass& traced = passes[2];
    run.checks.Expect(traced.ok && traced.digest == first.digest,
                      "replica ingest finds the library's change points");
    run.metrics.Set("obs.trace_overhead_ratio",
                    Median(traced.observe_s) / Median(first.observe_s),
                    "ratio", traced.observe_s.size());
  }

  // The live phase: open-loop ingest on this thread, one paced reader,
  // refits on the service's supervisor.
  RefitTimeline timeline;
  ReaderStats reader_stats;
  const uint64_t start_epoch = service.snapshot_epoch();
  const uint64_t start_publishes = service.publish_count();
  service.set_refit_fault_hook([&timeline] {
    std::lock_guard<std::mutex> lock(timeline.mu);
    timeline.attempts.push_back({Clock::now(), timeline.requests.size()});
    return Status::OK();
  });
  LiveIngest ingest(setup, run.trace() ? &run.log : nullptr);
  // The hand-off serve::ConnectIngest installs, plus a request timestamp.
  ingest.set_refit_sink([&timeline, &service](ExperimentCorpus corpus) {
    {
      std::lock_guard<std::mutex> lock(timeline.mu);
      timeline.requests.push_back(Clock::now());
    }
    service.RequestRefit(std::move(corpus));
  });

  obs::SetMetricsEnabled(run.trace());
  const PoolSample pool_before = SamplePool();
  std::atomic<bool> stop_reader{false};
  std::atomic<uint64_t> reader_epoch{start_epoch};
  std::thread reader([&] {
    const auto period = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(1.0 / sizes.read_rate_hz));
    const Clock::time_point begin = Clock::now();
    Clock::time_point next = begin;
    uint64_t seen = start_epoch;
    for (size_t i = 0; !stop_reader.load(std::memory_order_acquire); ++i) {
      const uint64_t epoch = service.snapshot_epoch();
      if (epoch != seen) {
        std::lock_guard<std::mutex> lock(timeline.mu);
        timeline.bumps.push_back({Clock::now(), epoch});
        seen = epoch;
        reader_epoch.store(epoch, std::memory_order_release);
      }
      const Clock::time_point t = Clock::now();
      const Result<Pipeline::Prediction> p =
          service.Predict(state->reads[i % state->reads.size()], target_cpus);
      const double dt = SecondsSince(t);
      if (!p.ok()) {
        ++reader_stats.failed;
      } else {
        reader_stats.latency_s.push_back(dt);
        if (!(std::isfinite(p->throughput_tps) && p->throughput_tps > 0.0)) {
          ++reader_stats.wrong;
        }
      }
      next += period;
      const Clock::time_point now = Clock::now();
      if (next < now - period) next = now;  // never burst to catch up
      SleepThenSpin(next);
    }
    reader_stats.wall_s = SecondsSince(begin);
  });

  const auto ingest_period = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(1.0 / sizes.ingest_rate_hz));
  std::vector<double> ingest_s;
  std::vector<double> lag_s;
  ingest_s.reserve(samples);
  lag_s.reserve(samples);
  Digest live_digest;
  uint64_t ingest_failed = 0;
  const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(2);
  for (size_t i = 0; i < samples; ++i) {
    const Clock::time_point due = t0 + ingest_period * static_cast<int64_t>(i);
    SleepThenSpin(due);
    const Clock::time_point start = Clock::now();
    const Result<IngestUpdate> update =
        ingest.Observe(setup.rows[i % setup.rows.size()],
                       static_cast<uint32_t>(i));
    const Clock::time_point end = Clock::now();
    lag_s.push_back(SecondsBetween(due, start));
    if (!update.ok()) {
      ++ingest_failed;
      continue;
    }
    ingest_s.push_back(SecondsBetween(due, end));
    AddToDigest(live_digest, *update);
  }
  service.WaitForRefits();
  const uint64_t final_epoch = service.snapshot_epoch();
  while (reader_epoch.load(std::memory_order_acquire) < final_epoch) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  stop_reader.store(true, std::memory_order_release);
  reader.join();
  const double live_wall_s = SecondsSince(t0);
  PoolUsage pool(config.num_threads);
  pool.Add(pool_before, SamplePool(), live_wall_s);
  obs::SetMetricsEnabled(false);
  service.set_refit_fault_hook(nullptr);

  // Match attempts to publishes (every attempt succeeds, so attempt k
  // publishes epoch start+1+k) and requests to the attempt that served them.
  std::vector<double> request_to_publish_s;
  std::vector<double> refit_s;
  {
    std::lock_guard<std::mutex> lock(timeline.mu);
    size_t served = 0;
    for (size_t k = 0; k < timeline.attempts.size(); ++k) {
      const uint64_t epoch = start_epoch + 1 + k;
      const auto bump = std::find_if(
          timeline.bumps.begin(), timeline.bumps.end(),
          [epoch](const auto& b) { return b.second >= epoch; });
      if (bump == timeline.bumps.end()) break;
      refit_s.push_back(SecondsBetween(timeline.attempts[k].first, bump->first));
      for (; served < timeline.attempts[k].second; ++served) {
        request_to_publish_s.push_back(
            SecondsBetween(timeline.requests[served], bump->first));
      }
    }
  }
  const uint64_t publishes = service.publish_count() - start_publishes;
  run.attempted += samples + reader_stats.latency_s.size() +
                   reader_stats.failed + timeline.requests.size();
  run.failed += ingest_failed + reader_stats.failed + service.refit_failures();
  run.checks.Expect(reader_stats.wrong == 0,
                    "every live read is a finite positive throughput");
  run.checks.Expect(live_digest.Hex() == first.digest,
                    "live change points equal the offline pass");
  run.checks.Expect(ingest.WindowMatchesBatch(),
                    "live window Hist-FP equals the batch build");
  run.checks.Expect(service.state() == serve::ServingState::kServing,
                    "service is serving after the live phase");
  run.checks.Expect(!request_to_publish_s.empty() &&
                        request_to_publish_s.size() == timeline.requests.size(),
                    "every refit request was published");

  run.metrics.Set("build_ms", Median(request_to_publish_s) * 1e3, "ms",
                  request_to_publish_s.size());
  run.metrics.Set("read_p50_us", Median(reader_stats.latency_s) * 1e6, "us",
                  reader_stats.latency_s.size());
  run.metrics.Set("reads_per_s",
                  static_cast<double>(reader_stats.latency_s.size()) /
                      reader_stats.wall_s,
                  "1/s", reader_stats.latency_s.size());
  SetTail(run.metrics, "read", reader_stats.latency_s, 1e6, "us");
  run.metrics.Set("live.ingest_p50_us", Median(ingest_s) * 1e6, "us",
                  ingest_s.size());
  SetTail(run.metrics, "ingest", ingest_s, 1e6, "us");
  run.metrics.Set("live.lag_p99_us", Percentile(lag_s, 0.99) * 1e6, "us",
                  lag_s.size());
  if (!run.trace()) return;

  run.metrics.Set("stream.ingest_p50_us", Median(ingest_s) * 1e6, "us",
                  ingest_s.size());
  run.metrics.Set("gen.lag_p99_us", Percentile(lag_s, 0.99) * 1e6, "us",
                  lag_s.size());
  run.SetFromSpans("stream.window_us", "stream.window", 1e6, "us");
  run.SetFromSpans("similarity.bcpd_us", "similarity.bcpd", 1e6, "us");
  run.SetFromSpans("similarity.append_ms", "similarity.append", 1e3, "ms");
  run.metrics.Set("stream.observe_coverage", run.log.Coverage("stream.observe"),
                  "ratio", samples);
  run.metrics.Set("stream.change_points",
                  static_cast<double>(ingest.change_points()), "count", 1);
  run.metrics.Set("stream.refits_requested",
                  static_cast<double>(ingest.refits()), "count", 1);
  run.metrics.Set("serve.refit_s", Median(refit_s), "s", refit_s.size());
  run.metrics.Set("serve.publishes", static_cast<double>(publishes), "count",
                  1);
  run.metrics.Set("serve.coalesced",
                  static_cast<double>(timeline.requests.size() -
                                      timeline.attempts.size()),
                  "count", 1);
  const double builds = static_cast<double>(std::max<uint64_t>(publishes, 1));
  run.metrics.Set("parallel.busy_ratio", pool.BusyRatio(), "ratio", 1);
  run.metrics.Set("parallel.tasks", static_cast<double>(pool.tasks) / builds,
                  "count", publishes);
  run.metrics.Set("parallel.steals", static_cast<double>(pool.steals) / builds,
                  "count", publishes);

  // What each refit runs, stage by stage: the service refits with a cold
  // Fit on base + window (BuildSnapshot), then serves with one thread.
  ExperimentCorpus final_corpus = state->base;
  final_corpus.Add(ingest.WindowExperiment());
  std::optional<ReplicaModel> model;
  for (int i = 0; i < 3; ++i) {
    model.emplace(Must(ReplicaFit(config, final_corpus, run.log,
                                  run.next_request++),
                       "traced replica refit"));
  }
  SetFitStageMetrics(run);
  for (int i = 0; i < 500; ++i) {
    const Result<Pipeline::Prediction> p = ReplicaPredict(
        *model, state->reads[i % state->reads.size()], target_cpus, 1, run.log,
        run.next_request++);
    if (!p.ok()) run.checks.Expect(false, "traced replica read failed");
  }
  run.SetFromSpans("telemetry.repair_us", "telemetry.repair", 1e6, "us");
  run.SetFromSpans("similarity.repr_us", "similarity.repr", 1e6, "us");
  run.SetFromSpans("similarity.distances_us", "similarity.distances", 1e6,
                   "us");
  run.SetFromSpans("predict.transition_us", "predict.transition", 1e6, "us");
  run.metrics.Set("core.predict_coverage", run.log.Coverage("core.predict"),
                  "ratio", run.log.Durations("core.predict").size());
}

// --- driver -----------------------------------------------------------------

struct WorkloadEntry {
  const char* name;
  void (*run)(RunContext&);
};

constexpr WorkloadEntry kWorkloads[] = {
    {"paper_fit", RunPaperFit},
    {"dtw_query", RunDtwQuery},
    {"live_loop", RunLiveLoop},
};

constexpr const char* kCoverageMetrics[] = {
    "core.fit_coverage", "core.predict_coverage", "stream.observe_coverage"};

obs::Json ReportJson(const RunContext& run, bool correct) {
  obs::Json report = obs::Json::Object();
  report.Set("schema", "wpred.bench_e2e/1");
  report.Set("workload", run.options.workload);
  report.Set("seed", static_cast<uint64_t>(run.options.seed));
  report.Set("seconds", run.options.seconds);
  report.Set("trace", run.trace());
  report.Set("host", HostJson());
  report.Set("correct", correct);
  report.Set("attempted", run.attempted);
  report.Set("failed", run.failed);
  report.Set("checks_evaluated", static_cast<uint64_t>(run.checks.evaluated()));
  obs::Json failures = obs::Json::Array();
  for (const std::string& failure : run.checks.failures()) {
    failures.Append(failure);
  }
  report.Set("check_failures", std::move(failures));
  obs::Json metrics = obs::Json::Object();
  for (const Metrics::Entry& entry : run.metrics.entries()) {
    obs::Json m = obs::Json::Object();
    m.Set("value", entry.value);
    m.Set("unit", entry.unit);
    m.Set("n", entry.n);
    metrics.Set(entry.name, std::move(m));
  }
  report.Set("metrics", std::move(metrics));
  report.Set("deterministic", run.deterministic);
  report.Set("spans", run.log.Dump(200));
  return report;
}

/// Runs one workload, prints its metric lines and result line, and returns
/// the process exit code for it.
int RunWorkload(const Options& options, const Sizes& sizes) {
  const WorkloadEntry* workload = nullptr;
  for (const WorkloadEntry& entry : kWorkloads) {
    if (options.workload == entry.name) workload = &entry;
  }
  if (workload == nullptr) Fatal("unknown workload " + options.workload);

  RunContext run(options, sizes);
  if (run.trace()) run.InitPerLayer();
  workload->run(run);
  run.metrics.Set("peak_rss_mb", PeakRssMb(), "MB", 1);

  for (const Metrics::Entry& entry : run.metrics.entries()) {
    std::printf("%s %s %.9g %s n=%llu\n", workload->name, entry.name.c_str(),
                entry.value, entry.unit.c_str(),
                static_cast<unsigned long long>(entry.n));
  }
  for (const auto& [name, value] : run.deterministic.fields()) {
    std::printf("%s deterministic.%s %s\n", workload->name, name.c_str(),
                value.Dump().c_str());
  }

  obs::Json metrics = obs::Json::Object();
  if (run.trace()) {
    for (const char* name : kCoverageMetrics) {
      const Metrics::Entry* entry = run.metrics.Find(name);
      if (entry->n > 0) {
        run.checks.Expect(entry->value >= 0.9,
                          std::string(name) + " is at least 0.9");
      }
    }
  }
  for (const MetricSpec& spec : run.trace() ? std::span<const MetricSpec>(kPerLayer)
                                            : std::span<const MetricSpec>(kEndToEnd)) {
    const Metrics::Entry* entry = run.metrics.Find(spec.name);
    const bool present = entry != nullptr && std::isfinite(entry->value);
    run.checks.Expect(present, std::string("metric reported: ") + spec.name);
    if (!present) continue;
    if (!run.trace()) {
      run.checks.Expect(entry->value > 0.0,
                        std::string("end-to-end metric is positive: ") +
                            spec.name);
    }
    obs::Json m = obs::Json::Object();
    m.Set("value", entry->value);
    m.Set("unit", spec.unit);
    metrics.Set(spec.name, std::move(m));
  }
  const bool correct = run.checks.ok();

  if (!options.json_path.empty()) {
    std::ofstream out(options.json_path, std::ios::trunc);
    out << ReportJson(run, correct).Dump(2) << "\n";
    if (!out) Fatal("cannot write " + options.json_path);
  }
  obs::Json line = obs::Json::Object();
  line.Set("correct", correct);
  line.Set("attempted", run.attempted);
  line.Set("failed", run.failed);
  line.Set("metrics", std::move(metrics));
  std::printf("%s\n", line.Dump().c_str());
  std::fflush(stdout);
  return correct && run.failed == 0 ? 0 : 1;
}

/// --smoke: every workload, untraced and traced, at tiny sizes.
int RunSmoke() {
  const Sizes sizes = MakeSizes(/*smoke=*/true);
  int status = 0;
  for (const WorkloadEntry& entry : kWorkloads) {
    for (const bool trace : {false, true}) {
      Options options;
      options.workload = entry.name;
      options.seconds = 0.5;
      options.trace = trace;
      if (RunWorkload(options, sizes) != 0) status = 1;
    }
  }
  std::printf(status == 0 ? "SMOKE OK\n" : "SMOKE FAILED\n");
  return status;
}

[[noreturn]] void Usage(const std::string& problem) {
  std::fprintf(stderr,
               "bench_e2e: %s\n"
               "usage: bench_e2e --workload paper_fit|dtw_query|live_loop "
               "--seed N [--seconds S] [--trace 0|1] [--json PATH]\n"
               "       bench_e2e --smoke\n",
               problem.c_str());
  std::exit(2);
}

uint64_t ParseUnsigned(const std::string& text, const char* flag) {
  if (text.empty() || text.find_first_not_of("0123456789") != std::string::npos) {
    Usage(std::string(flag) + " needs a non-negative integer");
  }
  errno = 0;
  const unsigned long long value = std::strtoull(text.c_str(), nullptr, 10);
  if (errno == ERANGE) Usage(std::string(flag) + " is out of range");
  return value;
}

Options ParseOptions(int argc, char** argv) {
  Options options;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    std::string value;
    bool has_value = false;
    const size_t eq = arg.find('=');
    if (eq != std::string::npos) {
      value = arg.substr(eq + 1);
      arg = arg.substr(0, eq);
      has_value = true;
    }
    const auto take = [&]() -> std::string {
      if (has_value) return value;
      if (i + 1 >= argc) Usage(arg + " needs a value");
      return argv[++i];
    };
    if (arg == "--smoke") {
      options.smoke = true;
    } else if (arg == "--workload") {
      options.workload = take();
      have_workload = true;
    } else if (arg == "--seed") {
      options.seed = ParseUnsigned(take(), "--seed");
    } else if (arg == "--seconds") {
      const std::string text = take();
      char* end = nullptr;
      options.seconds = std::strtod(text.c_str(), &end);
      if (end == text.c_str() || *end != '\0' || !(options.seconds > 0.0) ||
          options.seconds > 120.0) {
        Usage("--seconds needs a number in (0, 120]");
      }
    } else if (arg == "--trace") {
      // A bare --trace means on; an explicit value must be 0 or 1.
      if (!has_value && (i + 1 >= argc || (std::strcmp(argv[i + 1], "0") != 0 &&
                                           std::strcmp(argv[i + 1], "1") != 0))) {
        options.trace = true;
      } else {
        const std::string text = take();
        if (text != "0" && text != "1") Usage("--trace takes 0 or 1");
        options.trace = text == "1";
      }
    } else if (arg == "--json") {
      options.json_path = take();
    } else {
      Usage("unknown argument " + std::string(argv[i]));
    }
  }
  if (!options.smoke && !have_workload) Usage("--workload is required");
  return options;
}

}  // namespace
}  // namespace wpred::bench

int main(int argc, char** argv) {
  using namespace wpred::bench;
  const Options options = ParseOptions(argc, argv);
  if (options.smoke) return RunSmoke();
  return RunWorkload(options, MakeSizes(/*smoke=*/false));
}
