#ifndef WPRED_STREAM_INGEST_H_
#define WPRED_STREAM_INGEST_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "common/status.h"
#include "similarity/bcpd.h"
#include "similarity/query.h"
#include "similarity/representation.h"
#include "stream/window.h"
#include "telemetry/experiment.h"

// Incremental ingestion (DESIGN.md §13).
//
// IncrementalIngest turns the batch pipeline's frozen-corpus workflow into
// a live loop: telemetry samples append one at a time to a sliding window
// in O(features) per sample, per-feature online Bayesian change-point
// detectors watch the same stream, and a detected regime shift
// (a) re-segments the window, (b) appends the window's representation to a
// growing reference engine, and (c) requests a supervised model refit
// through a caller-installed sink — the serving layer wires that sink to
// PredictionService::RequestRefit (serve/stream_refit.h), which is the only
// place outside stream/ allowed to touch the refit hooks (lint layering
// rule).
//
// Threading: single-writer. One thread owns Observe and the accessors; the
// refit sink fires inside Observe on that thread and is expected to hand
// off (RequestRefit enqueues and returns). Concurrent serving reads never
// touch this object — they read immutable snapshots.
//
// Accordingly this module carries no thread-safety annotations
// (common/annotations.h): there is no mutex to name and no atomic that
// publishes — the ownership contract above is the whole story. The
// reference engine it appends to must not be queried while Observe runs
// (SimilarityQueryEngine::AppendTraces is single-writer), and the
// concurrent machinery it hands off to (PredictionService) is annotated
// and lint-checked at the hand-off points instead.

namespace wpred {

/// Default sliding window: 240 samples = 40 min at the paper's 10 s
/// cadence, a few expected regime lengths under the default hazard.
inline constexpr size_t kDefaultStreamWindowSamples = 240;

struct IngestConfig {
  /// Sliding-window length in samples, >= 2 (smaller fails Create).
  size_t window_samples = kDefaultStreamWindowSamples;
  /// Histogram bins for the window fingerprint (matches BuildHistFp).
  int hist_bins = 10;
  /// Representation appended to the reference engine on a regime shift.
  Representation representation = Representation::kHistFp;
  /// Online change-point detection, one detector per selected resource
  /// feature over its normalised stream.
  BcpdParams bcpd;
  /// Debounce: samples that must pass after the stream start, and between
  /// consecutive triggers, before a change point may fire the expensive
  /// actions (refit request + reference append). Re-segmentation is never
  /// debounced.
  size_t min_refit_spacing = 64;
  /// Fire the refit sink on a (debounced) change point.
  bool refit_on_change_point = true;
  /// Threads for the reference engine's envelope extension; common/parallel
  /// semantics.
  int num_threads = 0;
};

/// What one Observe() did.
struct IngestUpdate {
  /// Global index of the ingested sample (0-based).
  uint64_t sample_index = 0;
  /// A detector reported a regime shift at this sample.
  bool change_point = false;
  /// Global sample index where the new regime begins (valid when
  /// change_point).
  size_t change_point_index = 0;
  /// The refit sink was invoked with a fresh corpus.
  bool refit_requested = false;
  /// The window's representation was appended to the reference engine.
  bool reference_appended = false;
};

class IncrementalIngest {
 public:
  /// `features`: the fitted pipeline's selected features — the resource
  /// subset drives the window representations and the change-point
  /// detectors (at least one resource feature required). `ctx`: the fitted
  /// pipeline's frozen normalisation. `prototype`: metadata template for
  /// the streamed workload (workload/SKU/terminals/plans/perf); refit
  /// corpora materialise the window into a copy of it, so plan features
  /// stay available to representations that need them.
  static Result<IncrementalIngest> Create(const IngestConfig& config,
                                          std::vector<size_t> features,
                                          NormalizationContext ctx,
                                          Experiment prototype);

  /// Receives the refit corpus (base corpus + the materialised window) when
  /// a regime shift requests a refit. Must hand off quickly — it runs
  /// inside Observe on the ingest thread.
  using RefitSink = std::function<void(ExperimentCorpus)>;
  void set_refit_sink(RefitSink sink) { refit_sink_ = std::move(sink); }

  /// Reference experiments included in every refit corpus (typically the
  /// corpus the serving pipeline was fitted on).
  void set_base_corpus(ExperimentCorpus base) { base_ = std::move(base); }

  /// Non-owning reference engine grown on regime shifts; nullptr detaches.
  /// The engine must outlive the ingest (or be detached first) and must not
  /// be queried concurrently with Observe (single-writer contract).
  void set_reference_engine(SimilarityQueryEngine* engine) {
    reference_engine_ = engine;
  }

  /// Ingests one telemetry sample (kNumResourceFeatures raw values):
  /// pushes it into the window in O(features), feeds every detector, and on a
  /// detected regime shift re-segments, grows the reference engine, and
  /// (debounced) fires the refit sink.
  Result<IngestUpdate> Observe(const Vector& resource_sample);

  /// Window materialised into the prototype experiment — what a refit sees.
  Experiment WindowExperiment() const;

  /// Segments of the current window induced by the change points observed
  /// online, local to the window ([0, window size)). The trailing segment
  /// is never empty (SegmentsFromChangePoints boundary contract).
  std::vector<Segment> WindowSegments() const;

  const SlidingWindow& window() const { return window_; }
  const std::vector<size_t>& features() const { return features_; }
  uint64_t samples_ingested() const { return window_.samples_pushed(); }
  uint64_t change_points_detected() const { return change_points_; }
  uint64_t refits_requested() const { return refits_; }
  uint64_t reference_appends() const { return reference_appends_; }

 private:
  IncrementalIngest() = default;

  IngestConfig config_;
  std::vector<size_t> features_;           // full selection, catalog indices
  std::vector<size_t> resource_features_;  // resource subset, detector order
  Experiment prototype_;
  SlidingWindow window_;
  std::vector<OnlineBcpdDetector> detectors_;  // parallel to
                                               // resource_features_

  ExperimentCorpus base_;
  RefitSink refit_sink_;
  SimilarityQueryEngine* reference_engine_ = nullptr;

  // Global sample indices of observed change points, sorted unique; pruned
  // to the current window on each Observe.
  std::vector<size_t> recent_cps_;
  uint64_t change_points_ = 0;
  uint64_t refits_ = 0;
  uint64_t reference_appends_ = 0;
  // Sample index of the last refit request; refits wait min_refit_spacing
  // samples from here (and from stream start).
  uint64_t last_refit_sample_ = 0;
};

}  // namespace wpred

#endif  // WPRED_STREAM_INGEST_H_
