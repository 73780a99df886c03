#ifndef WPRED_OBS_EXPORT_H_
#define WPRED_OBS_EXPORT_H_

#include <iosfwd>
#include <string>

#include "common/status.h"
#include "obs/json.h"

// Exporters over the metrics + span registries. The JSON document is the
// machine-readable perf trajectory (bench --metrics-json=PATH writes one);
// RenderSpanTree turns its "spans" section back into a flame-style indented
// tree for humans (tools/metrics_summary).

namespace wpred::obs {

/// One consistent snapshot of everything observable: counters, gauges,
/// histograms (non-empty bins only), span aggregates, and the shared
/// thread-pool stats (workers, tasks queued/ran, per-worker busy seconds).
Json MetricsToJson();

/// MetricsToJson() pretty-printed.
std::string DumpMetricsJson();
void DumpMetricsJson(std::ostream& os);
Status WriteMetricsJsonFile(const std::string& path);

/// Renders the "spans" section of a metrics JSON document as an indented
/// tree: one line per path with call count, total seconds, and the share of
/// the parent span's time.
std::string RenderSpanTree(const Json& metrics);

}  // namespace wpred::obs

#endif  // WPRED_OBS_EXPORT_H_
