#include "core/pipeline.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>

#include "common/parallel.h"
#include "common/string_util.h"
#include "featsel/registry.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "similarity/measures.h"

namespace wpred {

namespace {

// Uniform message for every entry point that needs a fitted pipeline, so
// callers (and their logs) see which call was premature and what to do.
Status NotFittedError(const char* method) {
  return Status::FailedPrecondition(
      StrFormat("Pipeline::%s called before a successful Fit(); fit a "
                "reference corpus (>= 2 experiments surviving the quality "
                "gate) first",
                method));
}

// The model fitted for (workload, terminals), else the workload's model at
// the closest terminal count (the lower count on a tie).
template <typename Model>
Result<const Model*> NearestTerminalModel(
    const std::map<std::pair<std::string, int>, Model>& models,
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
  if (best == nullptr) {
    return Status::NotFound("no scaling model for workload " + workload);
  }
  return best;
}

// One (workload, terminals) key's scaling models. A failure travels in
// `status` rather than failing the slot, so the caller reports the first
// error in key order whatever order the slots ran in.
struct ScalingFit {
  Status status;
  bool fitted = false;  // false: fewer than two SKUs, no model
  PairwiseScalingModel pairwise;
  SingleScalingModel single;
};

ScalingFit FitScalingModels(const ExperimentCorpus& gated,
                            const std::pair<std::string, int>& key,
                            const PipelineConfig& config) {
  ScalingFit fit;
  Result<std::vector<SkuPerfPoint>> points = CollectScalingPoints(
      gated, key.first, key.second, config.subsamples);
  if (!points.ok()) {
    fit.status = points.status();
    return fit;
  }
  if (DistinctSkuValues(*points).size() < 2) return fit;
  fit.status = fit.pairwise.Fit(config.strategy, *points);
  if (!fit.status.ok()) return fit;
  fit.status = fit.single.Fit(config.strategy, *points);
  fit.fitted = fit.status.ok();
  return fit;
}

// Sorted distinct workload names of a gated corpus: the classes feature
// selection separates.
std::vector<std::string> WorkloadSet(const ExperimentCorpus& gated) {
  std::vector<std::string> names = gated.WorkloadNames();
  std::sort(names.begin(), names.end());
  return names;
}

}  // namespace

Status PipelineConfig::Validate() const {
  if (selector.empty()) {
    return Status::InvalidArgument("PipelineConfig::selector must be set");
  }
  if (measure.empty()) {
    return Status::InvalidArgument("PipelineConfig::measure must be set");
  }
  if (strategy.empty()) {
    return Status::InvalidArgument("PipelineConfig::strategy must be set");
  }
  if (top_k == 0) {
    return Status::InvalidArgument(
        "PipelineConfig::top_k must be >= 1 (got 0)");
  }
  if (subsamples == 0) {
    return Status::InvalidArgument(
        "PipelineConfig::subsamples must be >= 1 (got 0)");
  }
  if (num_threads < 0) {
    return Status::InvalidArgument(
        StrFormat("PipelineConfig::num_threads must be >= 0 (0 = process "
                  "default); got %d",
                  num_threads));
  }
  if (similarity_sketch_bins != 0 && similarity_sketch_bins < 2) {
    return Status::InvalidArgument(
        StrFormat("PipelineConfig::similarity_sketch_bins must be 0 "
                  "(default) or >= 2; got %d (a histogram needs two bins to "
                  "separate traces)",
                  similarity_sketch_bins));
  }
  if (quality_gate) {
    if (!(quality.stuck_run_fraction > 0.0) ||
        quality.stuck_run_fraction > 1.0) {
      return Status::InvalidArgument(StrFormat(
          "QualityPolicy::stuck_run_fraction must be in (0, 1]; got %g",
          quality.stuck_run_fraction));
    }
    if (!(quality.max_bad_fraction >= 0.0) || quality.max_bad_fraction > 1.0) {
      return Status::InvalidArgument(StrFormat(
          "QualityPolicy::max_bad_fraction must be in [0, 1]; got %g",
          quality.max_bad_fraction));
    }
    if (quality.min_samples < 2) {
      return Status::InvalidArgument(StrFormat(
          "QualityPolicy::min_samples must be >= 2 (interpolation needs two "
          "finite anchors); got %zu",
          quality.min_samples));
    }
  }
  return Status::OK();
}

// Stage 0: data-quality gate. Repairable experiments are repaired;
// unrepairable ones are quarantined into fit_report_ so one corrupt run
// cannot abort the whole fit.
Result<ExperimentCorpus> Pipeline::GateReference(
    const ExperimentCorpus& reference) {
  fit_report_ = CorpusQualityReport{};
  if (!config_.quality_gate) {
    // Ungated, a malformed experiment cannot be quarantined: reject the fit.
    for (const Experiment& e : reference.experiments()) {
      WPRED_RETURN_IF_ERROR(CheckResourceWidth(e));
    }
    return reference;
  }
  obs::Span gate_span("quality_gate");
  ExperimentCorpus gated;
  WPRED_ASSIGN_OR_RETURN(gated,
                         GateCorpus(reference, config_.quality, &fit_report_));
  WPRED_COUNT_ADD("pipeline.fit_experiments_quarantined",
                  reference.size() - gated.size());
  if (gated.size() < 2) {
    return Status::FailedPrecondition(
        StrFormat("only %zu of %zu reference experiments survived the "
                  "quality gate: ",
                  gated.size(), reference.size()) +
        fit_report_.Summary());
  }
  return gated;
}

// Stage 1: feature selection on aggregate observations.
Status Pipeline::SelectFeatures(const ExperimentCorpus& gated) {
  obs::Span selection_span("feature_selection");
  WPRED_ASSIGN_OR_RETURN(AggregateObservations aggregates,
                         BuildAggregateObservations(gated, config_.subsamples));
  WPRED_ASSIGN_OR_RETURN(std::unique_ptr<FeatureSelector> selector,
                         CreateSelector(config_.selector));
  selector->set_num_threads(config_.num_threads);
  WPRED_ASSIGN_OR_RETURN(Vector scores,
                         selector->ScoreFeatures(aggregates.x,
                                                 aggregates.labels));
  if (config_.representation == Representation::kMts) {
    // MTS can only represent resource features; exclude plan features from
    // the ranking by zeroing them below every resource feature.
    for (size_t f = kNumResourceFeatures; f < scores.size(); ++f) {
      scores[f] = -std::numeric_limits<double>::infinity();
    }
  }
  selection_.ranking = ScoresToRanking(scores);
  selection_.features = selection_.ranking.TopK(config_.top_k);
  if (config_.representation == Representation::kMts) {
    // Defensive: drop any plan feature that slipped in via k > 7.
    std::vector<size_t> resource_only;
    for (size_t f : selection_.features) {
      if (f < kNumResourceFeatures) resource_only.push_back(f);
    }
    selection_.features = std::move(resource_only);
    if (selection_.features.empty()) {
      return Status::FailedPrecondition(
          "MTS representation selected no resource features");
    }
  }
  selection_.workloads = WorkloadSet(gated);
  reselected_ = true;
  return Status::OK();
}

Status Pipeline::Fit(const ExperimentCorpus& reference) {
  WPRED_RETURN_IF_ERROR(config_.Validate());
  obs::Span fit_span("pipeline.fit");
  WPRED_COUNT_ADD("pipeline.fit_calls", 1);
  if (reference.size() < 2) {
    return Status::InvalidArgument("reference corpus too small");
  }
  fitted_ = false;
  WPRED_ASSIGN_OR_RETURN(ExperimentCorpus gated, GateReference(reference));
  WPRED_RETURN_IF_ERROR(SelectFeatures(gated));
  return FitFromSelection(std::move(gated));
}

Status Pipeline::Refit(const ExperimentCorpus& reference) {
  if (!fitted_) return Fit(reference);
  const FeatureSelection selection = selection_;  // the refit overwrites it
  return Refit(reference, selection);
}

Status Pipeline::Refit(const ExperimentCorpus& reference,
                       const FeatureSelection& selection) {
  if (!config_.incremental_refit) return Fit(reference);
  WPRED_RETURN_IF_ERROR(config_.Validate());
  obs::Span refit_span("pipeline.refit");
  WPRED_COUNT_ADD("pipeline.refit_calls", 1);
  if (reference.size() < 2) {
    return Status::InvalidArgument("reference corpus too small");
  }
  fitted_ = false;
  WPRED_ASSIGN_OR_RETURN(ExperimentCorpus gated, GateReference(reference));
  if (WorkloadSet(gated) == selection.workloads) {
    // Warm path: the selection carries over; only the corpus-dependent
    // stages rerun.
    selection_ = selection;
    reselected_ = false;
  } else {
    // Another classification problem: select as Fit() would, on the corpus
    // already gated.
    WPRED_RETURN_IF_ERROR(SelectFeatures(gated));
  }
  return FitFromSelection(std::move(gated));
}

// Stages 2–3 against the current selection_.
Status Pipeline::FitFromSelection(ExperimentCorpus gated) {
  // Stage 2: similarity machinery — shared normalisation + reference
  // representations.
  {
    obs::Span representation_span("representation_build");
    ctx_ = ComputeNormalization(gated);
    WPRED_ASSIGN_OR_RETURN(
        std::vector<Matrix> reference_reps,
        ParallelMap<Matrix>(gated.size(), config_.num_threads,
                            [&](size_t i) -> Result<Matrix> {
                              return BuildRepresentation(
                                  config_.representation, gated[i],
                                  selection_.features, ctx_);
                            }));
    WPRED_COUNT_ADD("pipeline.representations_built", gated.size());
    // The engine owns the reference representations; it also validates the
    // measure name up front, so a typo fails Fit() instead of the first
    // prediction.
    WPRED_ASSIGN_OR_RETURN(
        SimilarityQueryEngine engine,
        SimilarityQueryEngine::Build(std::move(reference_reps),
                                     config_.measure, /*window=*/0,
                                     config_.num_threads,
                                     config_.similarity_shard_traces,
                                     config_.similarity_sketch_bins));
    query_engine_ = std::move(engine);
  }
  reference_workloads_.clear();
  for (const Experiment& e : gated.experiments()) {
    reference_workloads_.push_back(e.workload);
  }

  // Stage 3: scaling models per (workload, terminal count). The keys fit
  // independently, one slot each; the merge walks the slots in key order, so
  // the maps, the count and the first error are a serial loop's.
  obs::Span models_span("model_fit");
  pairwise_.clear();
  single_.clear();
  std::set<std::pair<std::string, int>> key_set;
  for (const Experiment& e : gated.experiments()) {
    key_set.insert({e.workload, e.terminals});
  }
  const std::vector<std::pair<std::string, int>> keys(key_set.begin(),
                                                      key_set.end());
  WPRED_ASSIGN_OR_RETURN(
      std::vector<ScalingFit> fits,
      ParallelMap<ScalingFit>(keys.size(), config_.num_threads,
                              [&](size_t i) -> Result<ScalingFit> {
                                return FitScalingModels(gated, keys[i],
                                                        config_);
                              }));
  for (size_t i = 0; i < keys.size(); ++i) {
    ScalingFit& fit = fits[i];
    WPRED_RETURN_IF_ERROR(fit.status);
    if (!fit.fitted) continue;  // single-SKU corpus
    pairwise_[keys[i]] = std::move(fit.pairwise);
    single_[keys[i]] = std::move(fit.single);
    WPRED_COUNT_ADD("pipeline.scaling_models_fit", 2);
  }
  reference_corpus_ = std::move(gated);
  fitted_ = true;
  return Status::OK();
}

Result<Pipeline::PreparedObservation> Pipeline::PrepareObserved(
    const Experiment& observed) const {
  obs::Span prepare_span("quality_gate");
  PreparedObservation prepared;
  prepared.observed = &observed;
  const std::vector<size_t>& selected = selection_.features;
  prepared.features = selected;
  if (!config_.quality_gate ||
      PassesUntouched(observed, config_.quality, selected)) {
    return prepared;
  }

  // The gate would write (or refuse): repair a copy, as for a reference.
  WPRED_COUNT_ADD("pipeline.observation_repairs", 1);
  prepared.repaired = observed;
  WPRED_ASSIGN_OR_RETURN(const DataQualityReport report,
                         RepairExperiment(*prepared.repaired, config_.quality));
  const std::vector<size_t> unusable = report.UnusableFeatures();
  if (unusable.empty()) return prepared;

  auto is_unusable = [&unusable](size_t f) {
    return std::find(unusable.begin(), unusable.end(), f) != unusable.end();
  };
  std::vector<size_t> healthy;
  size_t lost = 0;
  for (size_t f : selected) {
    if (is_unusable(f)) {
      ++lost;
    } else {
      healthy.push_back(f);
    }
  }
  if (lost == 0) return prepared;  // faults hit only unselected features

  // Refill from the fitted importance ranking: next-best features that are
  // healthy in this observation and expressible by the representation.
  std::vector<size_t> substitutes;
  const FeatureRanking& ranking = selection_.ranking;
  for (size_t f : ranking.TopK(ranking.ranks.size())) {
    if (substitutes.size() == lost) break;
    if (is_unusable(f)) continue;
    if (std::find(selected.begin(), selected.end(), f) != selected.end()) {
      continue;
    }
    if (config_.representation == Representation::kMts &&
        f >= kNumResourceFeatures) {
      continue;  // MTS cannot represent plan features
    }
    substitutes.push_back(f);
  }
  prepared.features = std::move(healthy);
  prepared.features.insert(prepared.features.end(), substitutes.begin(),
                           substitutes.end());
  if (prepared.features.empty()) {
    std::vector<std::string> ids;
    for (size_t f : unusable) ids.push_back(StrFormat("%zu", f));
    return Status::FailedPrecondition(
        "no healthy features left for similarity: selected features are all "
        "dead or stuck [" +
        Join(ids, ",") + "]; telemetry: " + report.Summary());
  }
  prepared.degraded = true;
  return prepared;
}

// A degraded read's effective features do not match the fitted engine's
// representations, so the scan rebuilds each reference and measures it
// directly. MeasureDistance runs the engine's exact-scan kernels (DTW at an
// infinite cutoff), so the distances equal an engine's Distances() bit for
// bit, without the envelopes and sketches only a pruned top-k reads.
Result<Vector> Pipeline::DegradedDistances(
    const Matrix& rep, const std::vector<size_t>& features) const {
  return ParallelMap<double>(
      reference_corpus_.size(), config_.num_threads,
      [&](size_t i) -> Result<double> {
        WPRED_ASSIGN_OR_RETURN(
            const Matrix reference,
            BuildRepresentation(config_.representation, reference_corpus_[i],
                                features, ctx_));
        return MeasureDistance(config_.measure, rep, reference);
      });
}

Result<std::vector<Pipeline::WorkloadDistance>> Pipeline::RankPrepared(
    const PreparedObservation& observation) const {
  obs::Span rank_span("similarity_ranking");
  WPRED_ASSIGN_OR_RETURN(
      Matrix rep,
      BuildRepresentation(config_.representation, observation.experiment(),
                          observation.features, ctx_));
  // Distances compute in parallel into per-reference slots; the per-workload
  // aggregation below runs after the join in reference order, keeping the
  // ranking bit-identical at any thread count.
  Vector distances;
  if (observation.degraded) {
    WPRED_ASSIGN_OR_RETURN(distances,
                           DegradedDistances(rep, observation.features));
  } else {
    WPRED_ASSIGN_OR_RETURN(distances,
                           query_engine_->Distances(rep, config_.num_threads));
  }
  std::map<std::string, std::pair<double, size_t>> totals;  // sum, count
  for (size_t i = 0; i < distances.size(); ++i) {
    auto& [sum, count] = totals[reference_workloads_[i]];
    sum += distances[i];
    count += 1;
  }
  std::vector<WorkloadDistance> ranked;
  ranked.reserve(totals.size());
  for (const auto& [workload, agg] : totals) {
    ranked.push_back({workload, agg.first / static_cast<double>(agg.second)});
  }
  // Tie-break on the workload name: totals is keyed by workload, so names
  // are unique and equal mean distances (duplicated reference telemetry,
  // symmetric corpora) order identically on every platform instead of
  // inheriting std::sort's unspecified ordering.
  std::sort(ranked.begin(), ranked.end(),
            [](const WorkloadDistance& a, const WorkloadDistance& b) {
              if (a.mean_distance != b.mean_distance) {
                return a.mean_distance < b.mean_distance;
              }
              return a.workload < b.workload;
            });
  return ranked;
}

Result<std::vector<Neighbor>> Pipeline::NearestReferences(
    const Experiment& observed, size_t k) const {
  if (!fitted_) return NotFittedError("NearestReferences");
  if (k == 0) {
    return Status::InvalidArgument(
        "Pipeline::NearestReferences needs k >= 1");
  }
  obs::Span span("similarity_query");
  WPRED_ASSIGN_OR_RETURN(const PreparedObservation prepared,
                         PrepareObserved(observed));
  WPRED_ASSIGN_OR_RETURN(
      const Matrix rep,
      BuildRepresentation(config_.representation, prepared.experiment(),
                          prepared.features, ctx_));
  if (prepared.degraded) {
    // The first k entries of the stable (distance, index) argsort of the
    // exhaustive scan: by the engine's top-k contract, exactly what an
    // engine over the rebuilt references would return.
    WPRED_ASSIGN_OR_RETURN(const Vector distances,
                           DegradedDistances(rep, prepared.features));
    std::vector<Neighbor> ranked(distances.size());
    for (size_t i = 0; i < distances.size(); ++i) {
      ranked[i] = {i, distances[i]};
    }
    std::sort(ranked.begin(), ranked.end(),
              [](const Neighbor& a, const Neighbor& b) {
                if (a.distance != b.distance) return a.distance < b.distance;
                return a.index < b.index;
              });
    ranked.resize(std::min(k, ranked.size()));
    return ranked;
  }
  return query_engine_->RankNeighbors(rep, k);
}

Result<std::vector<Pipeline::WorkloadDistance>> Pipeline::RankWorkloads(
    const Experiment& observed) const {
  if (!fitted_) return NotFittedError("RankWorkloads");
  WPRED_ASSIGN_OR_RETURN(const PreparedObservation prepared,
                         PrepareObserved(observed));
  return RankPrepared(prepared);
}

Result<Pipeline::Prediction> Pipeline::PredictThroughput(
    const Experiment& observed, int target_cpus) const {
  obs::Span predict_span("pipeline.predict");
  WPRED_COUNT_ADD("pipeline.predict_calls", 1);
  if (!fitted_) return NotFittedError("PredictThroughput");
  if (!std::isfinite(observed.perf.throughput_tps)) {
    return Status::NumericalError(
        "observed throughput is not finite; cannot scale a corrupt target");
  }
  WPRED_ASSIGN_OR_RETURN(const PreparedObservation prepared,
                         PrepareObserved(observed));
  WPRED_ASSIGN_OR_RETURN(std::vector<WorkloadDistance> ranked,
                         RankPrepared(prepared));
  if (ranked.empty()) return Status::FailedPrecondition("no reference workloads");
  if (prepared.degraded) WPRED_COUNT_ADD("pipeline.predict_degraded", 1);

  Prediction prediction;
  prediction.reference_workload = ranked.front().workload;
  prediction.similarity_distance = ranked.front().mean_distance;
  prediction.degraded = prepared.degraded;
  prediction.effective_features = prepared.features;

  obs::Span model_span("model_predict");
  const double from = observed.cpus;
  const double to = target_cpus;
  const double perf = observed.perf.throughput_tps;
  if (config_.context == ModelContext::kPairwise) {
    WPRED_ASSIGN_OR_RETURN(
        const PairwiseScalingModel* model,
        NearestTerminalModel(pairwise_, prediction.reference_workload,
                             observed.terminals));
    Result<double> transition =
        model->PredictTransitionScaled(from, to, perf, observed.data_group);
    if (!transition.ok()) {
      // Unseen SKU pair: fall back to the single curve.
      WPRED_ASSIGN_OR_RETURN(
          const SingleScalingModel* single,
          NearestTerminalModel(single_, prediction.reference_workload,
                               observed.terminals));
      transition = single->PredictTransition(from, to, perf,
                                             observed.data_group);
    }
    WPRED_ASSIGN_OR_RETURN(prediction.throughput_tps, std::move(transition));
  } else {
    WPRED_ASSIGN_OR_RETURN(
        const SingleScalingModel* single,
        NearestTerminalModel(single_, prediction.reference_workload,
                             observed.terminals));
    WPRED_ASSIGN_OR_RETURN(
        prediction.throughput_tps,
        single->PredictTransition(from, to, perf, observed.data_group));
  }
  if (!std::isfinite(prediction.throughput_tps)) {
    return Status::NumericalError(
        "scaling model produced a non-finite throughput for reference " +
        prediction.reference_workload);
  }
  return prediction;
}

}  // namespace wpred
