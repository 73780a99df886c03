#ifndef WPRED_CORE_PIPELINE_H_
#define WPRED_CORE_PIPELINE_H_

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/workbench.h"
#include "featsel/ranking.h"
#include "predict/scaling_model.h"
#include "similarity/query.h"
#include "similarity/representation.h"
#include "telemetry/experiment.h"
#include "telemetry/quality.h"

namespace wpred {

/// Configuration of the end-to-end prediction pipeline — one choice per
/// stage of the paper's Figure 2, defaulting to the combination the paper's
/// own end-to-end experiment uses (Section 6.2.3): RFE + logistic
/// regression for top-7 features, Hist-FP + L2,1 similarity, pairwise SVR
/// scaling models.
struct PipelineConfig {
  std::string selector = "RFE LogReg";
  size_t top_k = 7;
  Representation representation = Representation::kHistFp;
  std::string measure = "L2,1-Norm";
  std::string strategy = "SVM";
  ModelContext context = ModelContext::kPairwise;
  /// Sub-experiments per experiment for feature selection / augmentation.
  size_t subsamples = 10;
  /// Worker threads for the parallel stages (wrapper feature selection,
  /// reference-representation building, scaling-model fits, similarity
  /// ranking); < 1 means the process default (WPRED_THREADS env var, else
  /// hardware concurrency), 1 forces the serial path. Results are
  /// bit-identical at any setting.
  int num_threads = 0;
  /// Traces per parallel task of the similarity engine's exact distance
  /// scan (SimilarityQueryEngine::Distances, the similarity-ranking stage);
  /// 0 means SimilarityQueryEngine::kDefaultShardTraces. Never changes
  /// results — only how that scan is scheduled.
  size_t similarity_shard_traces = 0;
  /// Histogram width of the similarity engine's tier-0 sketch filter
  /// (similarity/sketch.h): 0 means TraceSketchSet::kDefaultBins, >= 2 is
  /// honoured as-is; Validate() rejects anything else. Only the DTW
  /// measures sketch; like the shard width, the knob never changes results
  /// — only pruning effort.
  int similarity_sketch_bins = 0;
  /// Run the data-quality gate: Fit() repairs or quarantines dirty
  /// reference experiments; prediction repairs observed telemetry and falls
  /// back to the next-ranked healthy features when a selected feature's
  /// sensor is dead or stuck. Disabled, dirty telemetry flows through
  /// unchecked (the pre-gate behaviour).
  bool quality_gate = true;
  QualityPolicy quality;
  /// Warm-started model refresh for the streaming and serving paths:
  /// Refit() reuses a fitted FeatureSelection — skipping the selection
  /// stage, the dominant cost with wrapper selectors — and refits
  /// normalisation, representations, and scaling models against the new
  /// corpus, unless the corpus's workload set changed. Off (the default),
  /// Refit() is exactly Fit(). Predictions after an incremental Refit match
  /// a full Fit on the same corpus whenever that full fit would select the
  /// same features (StreamIngestTest pins this).
  bool incremental_refit = false;

  /// Range-checks every knob and returns the first violation as
  /// Status::InvalidArgument (negative num_threads, zero top_k/subsamples,
  /// empty stage names, out-of-range quality-gate thresholds). Fit() calls
  /// this at entry, so a misconfigured pipeline fails fast with a message
  /// instead of tripping a debug-only DCHECK deep in a stage.
  Status Validate() const;
};

/// A fitted feature selection as a value: what a refit needs to skip the
/// selection stage. Serving snapshots and checkpoints carry it, since a
/// Pipeline itself is not copyable.
struct FeatureSelection {
  /// Importance ranking over every feature; the fallback order for
  /// predict-time feature substitution.
  FeatureRanking ranking;
  /// The selected features, in rank order.
  std::vector<size_t> features;
  /// Sorted workload names of the gated corpus the selection was fitted on.
  /// Selection scores features by how well they tell these workloads apart,
  /// so a corpus with another workload set poses a different problem.
  std::vector<std::string> workloads;
};

/// The paper's primary artifact: feature selection → workload similarity →
/// resource scaling prediction, wired end to end.
///
/// Fit() consumes a reference corpus of monitored workloads across SKUs; it
/// (0) gates the corpus for data quality — repairing what it can and
/// quarantining unrepairable experiments into fit_report() instead of
/// aborting, (1) runs the configured feature-selection strategy on
/// aggregate observations to pick the top-k features, (2) freezes a shared
/// normalisation context and the reference representations, and (3) fits a
/// scaling model per reference workload × terminal count.
///
/// PredictThroughput() takes telemetry of a (new) workload observed on one
/// SKU, finds the most similar reference workload in representation space,
/// and transfers that workload's scaling model to predict throughput on the
/// target SKU. Observed telemetry passes through the same quality gate:
/// repairable damage is repaired, dead/stuck selected features are replaced
/// by the next-ranked healthy features (rebuilding reference
/// representations to match), and telemetry beyond repair yields a precise
/// non-OK Status — never a silently garbage prediction.
class Pipeline {
 public:
  explicit Pipeline(PipelineConfig config) : config_(std::move(config)) {}

  Status Fit(const ExperimentCorpus& reference);

  /// Fits `reference` starting from `selection`, a fitted pipeline's
  /// selection() (this one's, another's, or a checkpoint's). With
  /// `config().incremental_refit` set and the gated corpus holding exactly
  /// `selection.workloads`, the selection carries over and only the
  /// corpus-dependent stages rerun (quality gate, normalisation,
  /// representations + similarity engine, scaling models). Otherwise this
  /// is exactly Fit(): with the knob off, or when the workload set changed
  /// and selection must run again. On failure the pipeline is unfitted,
  /// like a failed Fit() — callers who need the old model to survive a
  /// failed refresh refit a fresh pipeline (the serving layer's snapshot
  /// path works that way).
  Status Refit(const ExperimentCorpus& reference,
               const FeatureSelection& selection);
  /// Refit() from this pipeline's own selection; Fit() when unfitted.
  Status Refit(const ExperimentCorpus& reference);

  bool fitted() const { return fitted_; }
  const PipelineConfig& config() const { return config_; }

  /// Re-points the parallelism knob after Fit(). Results are bit-identical
  /// at any setting (DESIGN.md §7), so this only chooses *how* later calls
  /// execute: the serving layer fits with a parallel knob, then pins
  /// prediction to 1 so the read path runs inline and touches zero
  /// thread-pool code (no pool mutex on reads).
  void set_num_threads(int num_threads) { config_.num_threads = num_threads; }
  // Accessors below return empty/default values before a successful Fit();
  // they never dereference unfitted state. Every value- or Status-producing
  // entry point (RankWorkloads, NearestReferences, PredictThroughput)
  // instead reports a descriptive FailedPrecondition when called early.
  const FeatureSelection& selection() const { return selection_; }
  const std::vector<size_t>& selected_features() const {
    return selection_.features;
  }
  /// Full importance ranking behind selected_features() — the fallback
  /// order for predict-time feature substitution.
  const FeatureRanking& feature_ranking() const { return selection_.ranking; }
  /// True when the last successful fit ran the selection stage: every
  /// Fit(), and a Refit() that could not reuse its selection. False when a
  /// Refit() carried a selection over.
  bool reselected() const { return reselected_; }
  const NormalizationContext& normalization() const { return ctx_; }
  /// Per-experiment quality outcome of the last Fit() (empty when the
  /// quality gate is disabled).
  const CorpusQualityReport& fit_report() const { return fit_report_; }

  /// Mean representation distance from `observed` to each reference
  /// workload, ascending (most similar first).
  struct WorkloadDistance {
    std::string workload;
    double mean_distance;
  };
  Result<std::vector<WorkloadDistance>> RankWorkloads(
      const Experiment& observed) const;

  /// The k reference experiments most similar to `observed`, ascending by
  /// (distance, index). Indices refer to the gated reference corpus (see
  /// reference_workloads() for their workload names). DTW measures run the
  /// lower-bound-pruned cascade of similarity/query.h; the result is
  /// bit-identical to an exhaustive scan. A degraded read ranks that
  /// exhaustive scan itself, over the references rebuilt for its effective
  /// features.
  Result<std::vector<Neighbor>> NearestReferences(const Experiment& observed,
                                                  size_t k) const;

  /// Workload name of each gated reference experiment, in corpus order
  /// (parallel to NearestReferences() indices).
  const std::vector<std::string>& reference_workloads() const {
    return reference_workloads_;
  }

  /// Tasks of the fitted similarity engine's exact distance scan,
  /// ⌈reference size / similarity_shard_traces⌉ (0 before a successful
  /// Fit(), or when the measure stage is disabled). The serving layer
  /// exports this so operators can see the scheduling granularity a
  /// snapshot serves with.
  size_t reference_shards() const {
    return query_engine_.has_value() ? query_engine_->num_shards() : 0;
  }

  /// Effective tier-0 sketch histogram width of the fitted similarity
  /// engine (0 before a successful Fit() or for non-DTW measures).
  /// Exported by serving snapshots alongside reference_shards().
  int sketch_bins() const {
    return query_engine_.has_value() ? query_engine_->sketch_bins() : 0;
  }

  /// Full end-to-end prediction.
  struct Prediction {
    double throughput_tps = 0.0;
    std::string reference_workload;
    double similarity_distance = 0.0;
    /// True when dead/stuck selected features were replaced by fallback
    /// features before ranking (quality gate only).
    bool degraded = false;
    /// The features the similarity stage actually used (equals the fitted
    /// selection unless degraded).
    std::vector<size_t> effective_features;
  };
  Result<Prediction> PredictThroughput(const Experiment& observed,
                                       int target_cpus) const;

 private:
  // Fit stages, shared by Fit() and the warm path of Refit(). GateReference
  // runs stage 0 into fit_report_; SelectFeatures runs stage 1 into
  // selection_; FitFromSelection runs stages 2–3 against the current
  // selection and commits the fitted state.
  Result<ExperimentCorpus> GateReference(const ExperimentCorpus& reference);
  Status SelectFeatures(const ExperimentCorpus& gated);
  Status FitFromSelection(ExperimentCorpus gated);

  /// Observed telemetry after the quality gate plus the effective (possibly
  /// substituted) feature set. Telemetry the gate would leave untouched
  /// (PassesUntouched, or the gate disabled) is read in place from the
  /// caller's `observed`, which outlives the read; only telemetry the gate
  /// writes to is copied and repaired into `repaired`.
  struct PreparedObservation {
    const Experiment* observed = nullptr;
    std::optional<Experiment> repaired;
    std::vector<size_t> features;
    bool degraded = false;

    const Experiment& experiment() const {
      return repaired.has_value() ? *repaired : *observed;
    }
  };
  Result<PreparedObservation> PrepareObserved(const Experiment& observed) const;
  Result<std::vector<WorkloadDistance>> RankPrepared(
      const PreparedObservation& observation) const;
  /// Distances from `rep` to each gated reference experiment rebuilt for
  /// `features`, the effective features of a degraded read, in corpus
  /// order.
  Result<Vector> DegradedDistances(const Matrix& rep,
                                   const std::vector<size_t>& features) const;

  PipelineConfig config_;
  bool fitted_ = false;

  FeatureSelection selection_;
  bool reselected_ = false;
  NormalizationContext ctx_;
  CorpusQualityReport fit_report_;
  // Gated reference corpus, kept to rebuild representations when predict-time
  // degradation changes the feature set.
  ExperimentCorpus reference_corpus_;
  // Owns the reference representations (one per reference experiment) plus
  // the envelopes and sketches behind NearestReferences(); engaged by Fit().
  std::optional<SimilarityQueryEngine> query_engine_;
  std::vector<std::string> reference_workloads_;
  // Scaling models keyed by (workload, terminals).
  std::map<std::pair<std::string, int>, PairwiseScalingModel> pairwise_;
  std::map<std::pair<std::string, int>, SingleScalingModel> single_;
};

}  // namespace wpred

#endif  // WPRED_CORE_PIPELINE_H_
