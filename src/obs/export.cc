#include "obs/export.h"

#include <fstream>
#include <map>
#include <ostream>

#include "common/parallel.h"
#include "common/string_util.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace wpred::obs {
namespace {

Json HistogramToJson(const Histogram& h) {
  Json out = Json::Object();
  out.Set("count", h.count());
  out.Set("sum", h.sum());
  out.Set("min", h.min());
  out.Set("max", h.max());
  Json bins = Json::Array();
  const auto counts = h.bins();
  for (int i = 0; i < Histogram::kNumBins; ++i) {
    if (counts[static_cast<size_t>(i)] == 0) continue;
    Json bin = Json::Object();
    bin.Set("le", Histogram::BinUpperBound(i));
    bin.Set("count", counts[static_cast<size_t>(i)]);
    bins.Append(std::move(bin));
  }
  out.Set("bins", std::move(bins));
  return out;
}

Json PoolToJson() {
  Json out = Json::Object();
  if (!ThreadPool::SharedCreated()) {
    out.Set("workers", 0);
    out.Set("tasks_submitted", 0);
    out.Set("tasks_executed", 0);
    out.Set("busy_seconds", Json::Array());
    return out;
  }
  const ThreadPool& pool = ThreadPool::Shared();
  out.Set("workers", pool.workers());
  out.Set("tasks_submitted", pool.tasks_submitted());
  out.Set("tasks_executed", pool.tasks_executed());
  Json busy = Json::Array();
  for (const double seconds : pool.WorkerBusySeconds()) {
    busy.Append(seconds);
  }
  out.Set("busy_seconds", std::move(busy));
  return out;
}

struct SpanNode {
  const SpanStats* stats = nullptr;
  std::map<std::string, SpanNode> children;  // ordered => stable output
};

void RenderNode(const std::string& name, const SpanNode& node,
                double parent_total, int depth, std::string& out) {
  std::string line(static_cast<size_t>(2 * depth), ' ');
  line += name;
  if (node.stats != nullptr) {
    if (line.size() < 44) line.resize(44, ' ');
    line += StrFormat("  calls=%-6llu total=%9.4fs",
                      static_cast<unsigned long long>(node.stats->count),
                      node.stats->total_seconds);
    if (parent_total > 0.0) {
      line += StrFormat("  %5.1f%% of parent",
                        100.0 * node.stats->total_seconds / parent_total);
    }
  }
  out += line;
  out.push_back('\n');
  const double own_total =
      node.stats != nullptr ? node.stats->total_seconds : parent_total;
  for (const auto& [child_name, child] : node.children) {
    RenderNode(child_name, child, own_total, depth + 1, out);
  }
}

}  // namespace

Json MetricsToJson() {
  Json root = Json::Object();

  Json counters = Json::Object();
  for (const auto& [name, value] :
       MetricsRegistry::Global().CounterSnapshot()) {
    counters.Set(name, value);
  }
  root.Set("counters", std::move(counters));

  Json gauges = Json::Object();
  for (const auto& [name, value] : MetricsRegistry::Global().GaugeSnapshot()) {
    gauges.Set(name, value);
  }
  root.Set("gauges", std::move(gauges));

  Json histograms = Json::Object();
  for (const auto& [name, histogram] :
       MetricsRegistry::Global().HistogramSnapshot()) {
    histograms.Set(name, HistogramToJson(*histogram));
  }
  root.Set("histograms", std::move(histograms));

  Json spans = Json::Array();
  for (const auto& [path, stats] : SpanRegistry::Global().Snapshot()) {
    Json span = Json::Object();
    span.Set("path", path);
    span.Set("count", stats.count);
    span.Set("total_seconds", stats.total_seconds);
    span.Set("min_seconds", stats.min_seconds);
    span.Set("max_seconds", stats.max_seconds);
    spans.Append(std::move(span));
  }
  root.Set("spans", std::move(spans));

  root.Set("parallel", PoolToJson());
  return root;
}

std::string DumpMetricsJson() { return MetricsToJson().Dump(/*indent=*/2); }

void DumpMetricsJson(std::ostream& os) { os << DumpMetricsJson() << "\n"; }

Status WriteMetricsJsonFile(const std::string& path) {
  std::ofstream out(path);
  if (!out) return Status::IoError("cannot open for writing: " + path);
  DumpMetricsJson(out);
  if (!out) return Status::IoError("write failed: " + path);
  return Status::OK();
}

std::string RenderSpanTree(const Json& metrics) {
  const Json& spans = metrics.Get("spans");
  if (spans.type() != Json::Type::kArray || spans.items().empty()) {
    return "(no spans recorded)\n";
  }
  // Paths are '/'-joined segments; materialise the tree, then walk it.
  SpanNode root;
  std::vector<SpanStats> storage;
  storage.reserve(spans.items().size());
  for (const Json& span : spans.items()) {
    SpanStats stats;
    stats.count = static_cast<uint64_t>(span.Get("count").AsNumber());
    stats.total_seconds = span.Get("total_seconds").AsNumber();
    stats.min_seconds = span.Get("min_seconds").AsNumber();
    stats.max_seconds = span.Get("max_seconds").AsNumber();
    storage.push_back(stats);
    SpanNode* node = &root;
    for (const std::string& segment :
         Split(span.Get("path").AsString(), '/')) {
      node = &node->children[segment];
    }
    node->stats = &storage.back();
  }
  std::string out;
  for (const auto& [name, child] : root.children) {
    RenderNode(name, child, 0.0, 0, out);
  }
  return out;
}

}  // namespace wpred::obs
