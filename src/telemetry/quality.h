#ifndef WPRED_TELEMETRY_QUALITY_H_
#define WPRED_TELEMETRY_QUALITY_H_

#include <span>
#include <string>
#include <vector>

#include "common/status.h"
#include "telemetry/experiment.h"

namespace wpred {

// Data-quality gate for telemetry: detect the fault modes of
// telemetry/faults.h (and of real collectors) in an experiment, repair what
// is repairable, and report — in a typed, per-feature form — what was found,
// so the pipeline can degrade gracefully instead of silently propagating
// NaN/Inf or dead-sensor columns into feature selection and scaling models.

/// Verdict thresholds. The repair itself is fixed: non-finite gaps are
/// interpolated linearly (edge gaps extend the nearest finite value), dead
/// feature columns are zero-filled and flagged dropped, and non-finite plan
/// values become 0. Finite samples are never rewritten, so clean telemetry
/// passes through bit-identical.
struct QualityPolicy {
  /// A run of consecutive identical non-zero values covering at least this
  /// fraction of the series marks the feature as a stuck sensor. All-zero
  /// columns are idle sensors, not stuck ones (lock waits in an analytical
  /// workload legitimately flatline at 0).
  double stuck_run_fraction = 0.5;
  /// A feature with more than this fraction of non-finite samples is dead —
  /// interpolation would fabricate most of the series.
  double max_bad_fraction = 0.5;
  /// Fewer resource samples than this is unrepairable (kFailedPrecondition).
  size_t min_samples = 8;
  /// More dead resource features than this is unrepairable
  /// (kFailedPrecondition); up to this many are zero-filled and dropped.
  size_t max_dead_features = 3;
};

/// What the gate found (and fixed) for one resource feature column.
struct FeatureQuality {
  size_t nan_count = 0;       // non-finite samples seen before repair
  size_t inf_count = 0;
  size_t longest_stuck_run = 0;
  bool dead = false;          // too many non-finite samples to repair
  bool stuck = false;         // frozen non-zero run >= stuck_run_fraction
  bool repaired = false;      // non-finite gaps interpolated
  bool dropped = false;       // dead column zero-filled

  /// Healthy enough to select / represent / compare on.
  bool usable() const { return !dead && !stuck; }
};

/// Quality findings for one experiment.
struct DataQualityReport {
  size_t num_samples = 0;
  size_t plan_bad_values = 0;  // non-finite plan-statistic entries
  bool perf_bad = false;       // non-finite throughput/latency summary
  std::vector<FeatureQuality> features;  // size kNumResourceFeatures

  /// Indices of resource features that are dead or stuck.
  std::vector<size_t> UnusableFeatures() const;
  /// True when nothing was detected: telemetry passed the gate untouched.
  bool clean() const;
  /// One-line human summary, e.g. "2 dead features [2,5], 14 NaN repaired".
  std::string Summary() const;
};

/// Analyses without mutating: detection only, no repair flags set.
DataQualityReport AnalyzeExperiment(const Experiment& experiment,
                                    const QualityPolicy& policy = {});

/// OK when the experiment's resource matrix has the catalog's
/// kNumResourceFeatures columns; kInvalidArgument naming the width otherwise.
Status CheckResourceWidth(const Experiment& experiment);

/// Detects and repairs in place. Returns the report of what was found and
/// fixed, or a non-OK Status when the telemetry is beyond repair:
///  - kFailedPrecondition: too few samples or too many dead features;
///  - kInvalidArgument: a resource matrix narrower or wider than the
///    catalog (CheckResourceWidth);
///  - kNumericalError: non-finite performance summary (the prediction
///    target itself is corrupt).
Result<DataQualityReport> RepairExperiment(Experiment& experiment,
                                           const QualityPolicy& policy = {});

/// Copy-free screen: true only when RepairExperiment(experiment, policy)
/// would succeed, write nothing, and report none of `features` unusable —
/// at least max(1, min_samples) samples, exactly kNumResourceFeatures
/// resource columns, a finite perf summary, every resource and plan value
/// finite, and no selected resource column stuck. One O(n) pass per check
/// and no allocation; a false answer says nothing about why (run
/// RepairExperiment for the report).
bool PassesUntouched(const Experiment& experiment, const QualityPolicy& policy,
                     std::span<const size_t> features);

/// Per-experiment outcome of gating a corpus.
struct CorpusQualityReport {
  struct Item {
    size_t index = 0;          // index in the input corpus
    std::string label;         // Experiment::Label()
    Status status;             // OK = kept (possibly repaired), else why not
    DataQualityReport report;  // findings (detection-only if quarantined)
  };
  std::vector<Item> items;
  std::vector<size_t> quarantined;  // input indices of rejected experiments

  size_t num_kept() const { return items.size() - quarantined.size(); }
  std::string Summary() const;
};

/// Gates every experiment: returns a corpus of the repaired survivors (input
/// order preserved) and fills `report` (if non-null) with one Item per input
/// experiment. Unrepairable experiments are quarantined with their Status
/// instead of failing the whole call; the result is only an error when the
/// input is empty.
Result<ExperimentCorpus> GateCorpus(const ExperimentCorpus& corpus,
                                    const QualityPolicy& policy,
                                    CorpusQualityReport* report);

}  // namespace wpred

#endif  // WPRED_TELEMETRY_QUALITY_H_
