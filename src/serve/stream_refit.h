#ifndef WPRED_SERVE_STREAM_REFIT_H_
#define WPRED_SERVE_STREAM_REFIT_H_

#include <utility>

#include "serve/service.h"
#include "stream/ingest.h"

// The one sanctioned bridge between streaming ingestion and serving
// (DESIGN.md §13). IncrementalIngest knows nothing about serving — it
// exposes a refit-sink hook — and nothing below serve/ may depend on that
// hook being connected (wpred_lint's stream layering rule enforces the
// direction). This header is where the two meet: a detected regime shift
// becomes a coalescing RequestRefit, the supervisor fits off-thread, and
// the ingest thread never blocks on model training.

namespace wpred::serve {

/// Wires `ingest`'s refit sink to `service.RequestRefit`: every debounced
/// change-point refit hands the freshly materialised corpus to the serving
/// supervisor and returns immediately; a failed refit leaves the previous
/// snapshot live and marks the service degraded until a later refit
/// succeeds.
///
/// Lifetime: `service` must outlive `ingest`, or the sink must be cleared
/// first (`ingest.set_refit_sink(nullptr)`).
inline void ConnectIngest(IncrementalIngest& ingest,
                          PredictionService& service) {
  ingest.set_refit_sink([&service](ExperimentCorpus corpus) {
    service.RequestRefit(std::move(corpus));
  });
}

}  // namespace wpred::serve

#endif  // WPRED_SERVE_STREAM_REFIT_H_
