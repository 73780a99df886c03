#include "telemetry/quality.h"

#include <algorithm>
#include <cmath>

#include "common/string_util.h"

namespace wpred {
namespace {

/// O(n) detection pass over one resource feature column: non-finite counts,
/// the longest non-zero run, and the dead/stuck verdicts. No allocation and
/// no mutation.
FeatureQuality ScanRuns(const Matrix& values, size_t c,
                        const QualityPolicy& policy) {
  FeatureQuality q;
  const size_t n = values.rows();
  size_t run = 0;
  double run_value = 0.0;
  for (size_t r = 0; r < n; ++r) {
    const double v = values(r, c);
    if (std::isnan(v)) {
      ++q.nan_count;
      run = 0;
      continue;
    }
    if (std::isinf(v)) {
      ++q.inf_count;
      run = 0;
      continue;
    }
    if (run > 0 && v == run_value) {
      ++run;
    } else {
      run = 1;
      run_value = v;
    }
    // Idle sensors flatline at zero legitimately; only non-zero freezes
    // count toward stuck-at detection.
    if (v != 0.0) q.longest_stuck_run = std::max(q.longest_stuck_run, run);
  }

  const size_t bad = q.nan_count + q.inf_count;
  q.dead = n == 0 || bad == n ||
           static_cast<double>(bad) >
               policy.max_bad_fraction * static_cast<double>(n);
  if (!q.dead) {
    q.stuck = static_cast<double>(q.longest_stuck_run) >=
              policy.stuck_run_fraction * static_cast<double>(n);
  }
  return q;
}

/// Linear interpolation of non-finite gaps from the nearest finite
/// neighbours; leading/trailing gaps extend the nearest finite value.
/// Requires at least one finite sample (dead columns never reach here).
void InterpolateGaps(Matrix& values, size_t c) {
  const size_t n = values.rows();
  size_t prev_finite = n;  // n = none yet
  for (size_t r = 0; r < n; ++r) {
    if (std::isfinite(values(r, c))) {
      if (prev_finite == n && r > 0) {
        // Leading gap: extend the first finite value backwards.
        for (size_t k = 0; k < r; ++k) values(k, c) = values(r, c);
      } else if (prev_finite != n && r > prev_finite + 1) {
        const double lo = values(prev_finite, c);
        const double hi = values(r, c);
        const double span = static_cast<double>(r - prev_finite);
        for (size_t k = prev_finite + 1; k < r; ++k) {
          const double t = static_cast<double>(k - prev_finite) / span;
          values(k, c) = lo + t * (hi - lo);
        }
      }
      prev_finite = r;
    }
  }
  if (prev_finite != n) {
    // Trailing gap: extend the last finite value forwards.
    for (size_t k = prev_finite + 1; k < n; ++k) {
      values(k, c) = values(prev_finite, c);
    }
  }
}

DataQualityReport Detect(const Experiment& e, const QualityPolicy& policy) {
  DataQualityReport report;
  report.num_samples = e.resource.num_samples();
  report.features.resize(kNumResourceFeatures);
  for (size_t c = 0; c < kNumResourceFeatures && c < e.resource.values.cols();
       ++c) {
    report.features[c] = ScanRuns(e.resource.values, c, policy);
  }
  for (double v : e.plans.values.data()) {
    if (!std::isfinite(v)) ++report.plan_bad_values;
  }
  report.perf_bad = !std::isfinite(e.perf.throughput_tps) ||
                    !std::isfinite(e.perf.mean_latency_ms);
  return report;
}

}  // namespace

std::vector<size_t> DataQualityReport::UnusableFeatures() const {
  std::vector<size_t> unusable;
  for (size_t c = 0; c < features.size(); ++c) {
    if (!features[c].usable()) unusable.push_back(c);
  }
  return unusable;
}

bool DataQualityReport::clean() const {
  if (plan_bad_values > 0 || perf_bad) return false;
  for (const FeatureQuality& q : features) {
    if (q.nan_count > 0 || q.inf_count > 0 || q.dead || q.stuck ||
        q.repaired || q.dropped) {
      return false;
    }
  }
  return true;
}

std::string DataQualityReport::Summary() const {
  if (clean()) return "clean";
  size_t nan = 0, inf = 0, repaired = 0;
  std::vector<size_t> dead, stuck;
  for (size_t c = 0; c < features.size(); ++c) {
    const FeatureQuality& q = features[c];
    nan += q.nan_count;
    inf += q.inf_count;
    repaired += q.repaired ? 1 : 0;
    if (q.dead) dead.push_back(c);
    if (q.stuck) stuck.push_back(c);
  }
  std::vector<std::string> parts;
  if (nan + inf > 0) parts.push_back(StrFormat("%zu non-finite", nan + inf));
  if (!dead.empty()) {
    std::vector<std::string> ids;
    for (size_t c : dead) ids.push_back(StrFormat("%zu", c));
    parts.push_back("dead features [" + Join(ids, ",") + "]");
  }
  if (!stuck.empty()) {
    std::vector<std::string> ids;
    for (size_t c : stuck) ids.push_back(StrFormat("%zu", c));
    parts.push_back("stuck features [" + Join(ids, ",") + "]");
  }
  if (repaired > 0) parts.push_back(StrFormat("%zu repaired", repaired));
  if (plan_bad_values > 0) {
    parts.push_back(StrFormat("%zu bad plan values", plan_bad_values));
  }
  if (perf_bad) parts.push_back("non-finite perf summary");
  return Join(parts, ", ");
}

DataQualityReport AnalyzeExperiment(const Experiment& experiment,
                                    const QualityPolicy& policy) {
  return Detect(experiment, policy);
}

bool PassesUntouched(const Experiment& experiment, const QualityPolicy& policy,
                     std::span<const size_t> features) {
  const Matrix& values = experiment.resource.values;
  if (values.rows() < std::max<size_t>(1, policy.min_samples)) return false;
  if (values.cols() != kNumResourceFeatures) return false;
  if (!std::isfinite(experiment.perf.throughput_tps) ||
      !std::isfinite(experiment.perf.mean_latency_ms)) {
    return false;
  }
  for (double v : values.data()) {
    if (!std::isfinite(v)) return false;
  }
  for (double v : experiment.plans.values.data()) {
    if (!std::isfinite(v)) return false;
  }
  for (size_t f : features) {
    if (f < kNumResourceFeatures && ScanRuns(values, f, policy).stuck) {
      return false;
    }
  }
  return true;
}

Status CheckResourceWidth(const Experiment& experiment) {
  const size_t cols = experiment.resource.values.cols();
  if (cols == kNumResourceFeatures) return Status::OK();
  return Status::InvalidArgument(
      StrFormat("%s: resource matrix has %zu columns, the catalog has %zu",
                experiment.Label().c_str(), cols, kNumResourceFeatures));
}

Result<DataQualityReport> RepairExperiment(Experiment& experiment,
                                           const QualityPolicy& policy) {
  DataQualityReport report = Detect(experiment, policy);
  if (report.num_samples < policy.min_samples) {
    return Status::FailedPrecondition(
        StrFormat("%zu resource samples < minimum %zu", report.num_samples,
                  policy.min_samples));
  }
  WPRED_RETURN_IF_ERROR(CheckResourceWidth(experiment));
  if (report.perf_bad) {
    return Status::NumericalError(
        "non-finite performance summary (the prediction target is corrupt)");
  }

  const size_t dead = static_cast<size_t>(
      std::count_if(report.features.begin(), report.features.end(),
                    [](const FeatureQuality& q) { return q.dead; }));
  if (dead > policy.max_dead_features) {
    return Status::FailedPrecondition(
        StrFormat("%zu dead resource features > maximum %zu: ", dead,
                  policy.max_dead_features) +
        report.Summary());
  }

  Matrix& values = experiment.resource.values;
  for (size_t c = 0; c < report.features.size() && c < values.cols(); ++c) {
    FeatureQuality& q = report.features[c];
    if (q.dead) {
      // Zero-fill so downstream aggregates stay finite; the column is
      // flagged dropped and excluded from selection/representation.
      for (size_t r = 0; r < values.rows(); ++r) values(r, c) = 0.0;
      q.dropped = true;
      continue;
    }
    if (q.nan_count + q.inf_count > 0) {
      InterpolateGaps(values, c);
      q.repaired = true;
    }
  }

  if (report.plan_bad_values > 0) {
    for (double& v : experiment.plans.values.data()) {
      if (!std::isfinite(v)) v = 0.0;
    }
  }
  return report;
}

std::string CorpusQualityReport::Summary() const {
  std::vector<std::string> parts;
  parts.push_back(StrFormat("kept %zu/%zu", num_kept(), items.size()));
  for (size_t i : quarantined) {
    parts.push_back(items[i].label + ": " + items[i].status.ToString());
  }
  return Join(parts, "; ");
}

Result<ExperimentCorpus> GateCorpus(const ExperimentCorpus& corpus,
                                    const QualityPolicy& policy,
                                    CorpusQualityReport* report) {
  if (corpus.empty()) return Status::InvalidArgument("empty corpus");
  ExperimentCorpus kept;
  CorpusQualityReport local;
  for (size_t i = 0; i < corpus.size(); ++i) {
    Experiment repaired = corpus[i];
    Result<DataQualityReport> outcome = RepairExperiment(repaired, policy);
    CorpusQualityReport::Item item;
    item.index = i;
    item.label = corpus[i].Label();
    if (outcome.ok()) {
      item.status = Status::OK();
      item.report = std::move(outcome).value();
      kept.Add(std::move(repaired));
    } else {
      item.status = outcome.status();
      item.report = AnalyzeExperiment(corpus[i], policy);
      local.quarantined.push_back(i);
    }
    local.items.push_back(std::move(item));
  }
  if (report != nullptr) *report = std::move(local);
  return kept;
}

}  // namespace wpred
