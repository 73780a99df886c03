#include "stream/ingest.h"

#include <algorithm>
#include <optional>
#include <utility>

#include "common/string_util.h"
#include "obs/metrics.h"
#include "telemetry/feature_catalog.h"

namespace wpred {

Result<IncrementalIngest> IncrementalIngest::Create(
    const IngestConfig& config, std::vector<size_t> features,
    NormalizationContext ctx, Experiment prototype) {
  if (features.empty()) {
    return Status::InvalidArgument("ingest needs a non-empty feature set");
  }
  std::vector<size_t> resource_features;
  for (size_t f : features) {
    if (f >= kNumFeatures) {
      return Status::InvalidArgument(
          StrFormat("feature index %zu outside the catalog", f));
    }
    if (f < kNumResourceFeatures) resource_features.push_back(f);
  }
  if (resource_features.empty()) {
    return Status::InvalidArgument(
        "ingest needs at least one resource feature to watch the stream");
  }

  IncrementalIngest ingest;
  WPRED_ASSIGN_OR_RETURN(
      ingest.window_,
      SlidingWindow::Create(config.window_samples, std::move(ctx),
                            config.hist_bins));
  ingest.detectors_.reserve(resource_features.size());
  for (size_t i = 0; i < resource_features.size(); ++i) {
    WPRED_ASSIGN_OR_RETURN(OnlineBcpdDetector detector,
                           OnlineBcpdDetector::Create(config.bcpd));
    ingest.detectors_.push_back(std::move(detector));
  }
  ingest.config_ = config;
  ingest.features_ = std::move(features);
  ingest.resource_features_ = std::move(resource_features);
  ingest.prototype_ = std::move(prototype);
  return ingest;
}

Result<IngestUpdate> IncrementalIngest::Observe(const Vector& resource_sample) {
  WPRED_RETURN_IF_ERROR(window_.Push(resource_sample));
  WPRED_COUNT_ADD("stream.samples_ingested", 1);

  IngestUpdate update;
  update.sample_index = window_.samples_pushed() - 1;

  // Every detector has seen exactly samples_pushed() values, so the indices
  // it emits are global sample indices — no re-basing needed.
  for (size_t i = 0; i < detectors_.size(); ++i) {
    const double x = NormalizeValue(window_.context(), resource_features_[i],
                                    resource_sample[resource_features_[i]]);
    const std::optional<size_t> cp = detectors_[i].Observe(x);
    if (!cp.has_value()) continue;
    if (!update.change_point || *cp < update.change_point_index) {
      update.change_point = true;
      update.change_point_index = *cp;
    }
    const auto it =
        std::lower_bound(recent_cps_.begin(), recent_cps_.end(), *cp);
    if (it == recent_cps_.end() || *it != *cp) {
      recent_cps_.insert(it, *cp);
      WPRED_COUNT_ADD("stream.change_points", 1);
      ++change_points_;
    }
  }

  // Drop change points that slid out of the window: a split at or before
  // the window's first sample no longer divides anything it holds.
  const size_t window_start = window_.samples_pushed() - window_.size();
  recent_cps_.erase(
      recent_cps_.begin(),
      std::lower_bound(recent_cps_.begin(), recent_cps_.end(),
                       window_start + 1));

  if (!update.change_point) return update;

  // Expensive reactions are debounced: a jittery detector re-confirming the
  // same shift must not stack refits or flood the reference engine.
  const uint64_t pushed = window_.samples_pushed();
  if (pushed - last_refit_sample_ < config_.min_refit_spacing) return update;
  const bool fire_refit = config_.refit_on_change_point &&
                          refit_sink_ != nullptr;
  const bool fire_append = reference_engine_ != nullptr;
  if (!fire_refit && !fire_append) return update;
  last_refit_sample_ = pushed;

  if (fire_append) {
    WPRED_ASSIGN_OR_RETURN(
        Matrix trace,
        BuildRepresentation(config_.representation, WindowExperiment(),
                            features_, window_.context()));
    std::vector<Matrix> traces;
    traces.push_back(std::move(trace));
    WPRED_RETURN_IF_ERROR(reference_engine_->AppendTraces(
        std::move(traces), config_.num_threads));
    update.reference_appended = true;
    ++reference_appends_;
    WPRED_COUNT_ADD("stream.reference_appends", 1);
  }

  if (fire_refit) {
    ExperimentCorpus corpus = base_;
    corpus.Add(WindowExperiment());
    refit_sink_(std::move(corpus));
    update.refit_requested = true;
    ++refits_;
    WPRED_COUNT_ADD("stream.refits_requested", 1);
  }
  return update;
}

Experiment IncrementalIngest::WindowExperiment() const {
  Experiment experiment = prototype_;
  experiment.resource.values = window_.Rows();
  return experiment;
}

std::vector<Segment> IncrementalIngest::WindowSegments() const {
  const size_t window_start = window_.samples_pushed() - window_.size();
  std::vector<size_t> local;
  local.reserve(recent_cps_.size());
  for (size_t cp : recent_cps_) {
    if (cp > window_start) local.push_back(cp - window_start);
  }
  return SegmentsFromChangePoints(window_.size(), local);
}

}  // namespace wpred
