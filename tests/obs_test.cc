// Observability subsystem: registry semantics, histogram binning, span
// nesting/aggregation, thread-safety under the shared pool, JSON round
// trips, and the guarantee that enabling metrics changes no pipeline
// output. Every suite name starts with Obs* so the CI TSan filter picks
// the whole file up.

#include <cmath>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/parallel.h"
#include "core/pipeline.h"
#include "core/workbench.h"
#include "obs/export.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/hardware.h"

namespace wpred {
namespace {

using obs::Counter;
using obs::Gauge;
using obs::Histogram;
using obs::Json;
using obs::MetricsRegistry;
using obs::Span;
using obs::SpanRegistry;
using obs::SpanStats;

// Metrics state is process-wide; every test starts and ends from a clean,
// disabled registry so ordering cannot leak between tests.
class ObsFixture : public ::testing::Test {
 protected:
  void SetUp() override { Clean(); }
  void TearDown() override { Clean(); }

  static void Clean() {
    obs::SetMetricsEnabled(false);
    MetricsRegistry::Global().ResetAll();
    SpanRegistry::Global().ResetAll();
  }
};

using ObsMetricsTest = ObsFixture;
using ObsSpanTest = ObsFixture;
using ObsJsonTest = ObsFixture;
using ObsExportTest = ObsFixture;
using ObsPipelineTest = ObsFixture;

TEST_F(ObsMetricsTest, CounterGaugeHistogramBasics) {
  obs::SetMetricsEnabled(true);
  Counter& c = MetricsRegistry::Global().GetCounter("t.counter");
  c.Add();
  c.Add(41);
  EXPECT_EQ(c.value(), 42u);

  Gauge& g = MetricsRegistry::Global().GetGauge("t.gauge");
  g.Set(2.5);
  g.Set(-7.25);
  EXPECT_EQ(g.value(), -7.25);

  Histogram& h = MetricsRegistry::Global().GetHistogram("t.hist");
  h.Record(0.5);
  h.Record(1.5);
  EXPECT_EQ(h.count(), 2u);
  EXPECT_EQ(h.sum(), 2.0);
  EXPECT_EQ(h.min(), 0.5);
  EXPECT_EQ(h.max(), 1.5);
}

TEST_F(ObsMetricsTest, SameNameReturnsSameInstrument) {
  Counter& a = MetricsRegistry::Global().GetCounter("t.same");
  Counter& b = MetricsRegistry::Global().GetCounter("t.same");
  EXPECT_EQ(&a, &b);
}

TEST_F(ObsMetricsTest, ResetAllZeroesButKeepsAddresses) {
  Counter& c = MetricsRegistry::Global().GetCounter("t.reset");
  c.Add(7);
  MetricsRegistry::Global().ResetAll();
  EXPECT_EQ(c.value(), 0u);
  // The cached reference stays usable after a reset — the contract the
  // WPRED_COUNT_ADD function-local statics rely on.
  c.Add(3);
  EXPECT_EQ(MetricsRegistry::Global().GetCounter("t.reset").value(), 3u);
}

TEST_F(ObsMetricsTest, DisabledHooksRecordNothing) {
  ASSERT_FALSE(obs::MetricsEnabled());
  WPRED_COUNT_ADD("t.disabled.counter", 5);
  WPRED_GAUGE_SET("t.disabled.gauge", 1.0);
  WPRED_HIST_RECORD("t.disabled.hist", 1.0);
  for (const auto& [name, value] : MetricsRegistry::Global().CounterSnapshot()) {
    EXPECT_NE(name.rfind("t.disabled.", 0), 0u)
        << name << " created while disabled";
  }
  for (const auto& [name, value] : MetricsRegistry::Global().GaugeSnapshot()) {
    EXPECT_NE(name.rfind("t.disabled.", 0), 0u)
        << name << " created while disabled";
  }
  for (const auto& [name, hist] :
       MetricsRegistry::Global().HistogramSnapshot()) {
    EXPECT_NE(name.rfind("t.disabled.", 0), 0u)
        << name << " created while disabled";
  }
}

TEST_F(ObsMetricsTest, HistogramBinning) {
  // Bin 0 holds everything <= kMinBound (zero and negatives included).
  EXPECT_EQ(Histogram::BinIndex(0.0), 0);
  EXPECT_EQ(Histogram::BinIndex(-1.0), 0);
  EXPECT_EQ(Histogram::BinIndex(Histogram::kMinBound), 0);
  // Bin i covers (kMinBound * 2^(i-1), kMinBound * 2^i].
  EXPECT_EQ(Histogram::BinIndex(1.5e-6), 1);
  EXPECT_EQ(Histogram::BinIndex(2e-6), 1);
  EXPECT_EQ(Histogram::BinIndex(2.5e-6), 2);
  // BinIndex agrees with BinUpperBound on every boundary.
  for (int bin = 0; bin + 1 < Histogram::kNumBins; ++bin) {
    const double bound = Histogram::BinUpperBound(bin);
    EXPECT_EQ(Histogram::BinIndex(bound), bin) << "bin " << bin;
  }
  // Overflow bin catches everything beyond the largest bound.
  EXPECT_EQ(Histogram::BinIndex(1e12), Histogram::kNumBins - 1);
  EXPECT_TRUE(std::isinf(Histogram::BinUpperBound(Histogram::kNumBins - 1)));

  Histogram h;
  EXPECT_TRUE(std::isnan(h.min()));  // no records yet
  h.Record(3e-6);
  h.Record(std::nan(""));  // NaN is dropped, not binned
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.bins()[Histogram::BinIndex(3e-6)], 1u);
}

TEST_F(ObsMetricsTest, ThreadSafeExactTotals) {
  obs::SetMetricsEnabled(true);
  constexpr size_t kTasks = 10000;
  const Status status =
      ParallelFor(kTasks, /*num_threads=*/8, [&](size_t i) -> Status {
        WPRED_COUNT_ADD("t.mt.counter", 2);
        WPRED_HIST_RECORD("t.mt.hist", 1e-3);
        WPRED_GAUGE_SET("t.mt.gauge", static_cast<double>(i));
        return Status::OK();
      });
  ASSERT_TRUE(status.ok());
  EXPECT_EQ(MetricsRegistry::Global().GetCounter("t.mt.counter").value(),
            2 * kTasks);
  Histogram& h = MetricsRegistry::Global().GetHistogram("t.mt.hist");
  EXPECT_EQ(h.count(), kTasks);
  EXPECT_NEAR(h.sum(), kTasks * 1e-3, 1e-9);
  EXPECT_EQ(h.min(), 1e-3);
  EXPECT_EQ(h.max(), 1e-3);
}

TEST_F(ObsSpanTest, NestedSpansAggregateByPath) {
  obs::SetMetricsEnabled(true);
  for (int i = 0; i < 3; ++i) {
    Span outer("outer");
    { Span inner("inner"); }
    { Span inner("inner"); }
  }
  const auto spans = SpanRegistry::Global().Snapshot();
  ASSERT_TRUE(spans.count("outer"));
  ASSERT_TRUE(spans.count("outer/inner"));
  EXPECT_EQ(spans.at("outer").count, 3u);
  EXPECT_EQ(spans.at("outer/inner").count, 6u);
  // Children cannot take longer than the scope that contains them.
  EXPECT_LE(spans.at("outer/inner").total_seconds,
            spans.at("outer").total_seconds);
  EXPECT_LE(spans.at("outer").min_seconds, spans.at("outer").max_seconds);
}

TEST_F(ObsSpanTest, CurrentPathTracksTheStack) {
  obs::SetMetricsEnabled(true);
  EXPECT_EQ(Span::CurrentPath(), "");
  {
    Span a("a");
    EXPECT_EQ(Span::CurrentPath(), "a");
    {
      Span b("b");
      EXPECT_EQ(Span::CurrentPath(), "a/b");
    }
    EXPECT_EQ(Span::CurrentPath(), "a");
  }
  EXPECT_EQ(Span::CurrentPath(), "");
}

TEST_F(ObsSpanTest, DisabledSpanIsInert) {
  ASSERT_FALSE(obs::MetricsEnabled());
  {
    Span span("t.disabled.span");
    EXPECT_EQ(Span::CurrentPath(), "");
  }
  EXPECT_TRUE(SpanRegistry::Global().Snapshot().empty());
}

TEST_F(ObsSpanTest, SpansOnPoolWorkersRootFreshPaths) {
  obs::SetMetricsEnabled(true);
  constexpr size_t kTasks = 256;
  Span outer("driver");
  const Status status =
      ParallelFor(kTasks, /*num_threads=*/8, [&](size_t) -> Status {
        Span work("work");
        return Status::OK();
      });
  ASSERT_TRUE(status.ok());
  const auto spans = SpanRegistry::Global().Snapshot();
  // Worker-side spans do not inherit the driver's path (separate thread,
  // separate stack) but all 256 land in the registry... unless the serial
  // fallback ran them on this thread, where they nest under "driver".
  uint64_t total = 0;
  for (const auto& [path, stats] : spans) {
    if (path == "work" || path == "driver/work") total += stats.count;
  }
  EXPECT_EQ(total, kTasks);
}

TEST_F(ObsJsonTest, ValueRoundTrip) {
  Json object = Json::Object();
  object.Set("text", "line\n\"quoted\"\\slash");
  object.Set("integer", 42);
  object.Set("fraction", 0.1);
  object.Set("negative", -1.5e-9);
  object.Set("yes", true);
  object.Set("no", false);
  object.Set("nothing", Json());
  Json array = Json::Array();
  array.Append(1);
  array.Append(2.5);
  array.Append("three");
  object.Set("array", std::move(array));

  for (const int indent : {0, 2}) {
    const auto parsed = Json::Parse(object.Dump(indent));
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    const Json& p = parsed.value();
    EXPECT_EQ(p.Get("text").AsString(), "line\n\"quoted\"\\slash");
    EXPECT_EQ(p.Get("integer").AsNumber(), 42.0);
    EXPECT_EQ(p.Get("fraction").AsNumber(), 0.1);  // %.17g is bit-exact
    EXPECT_EQ(p.Get("negative").AsNumber(), -1.5e-9);
    EXPECT_TRUE(p.Get("yes").AsBool());
    EXPECT_FALSE(p.Get("no").AsBool());
    EXPECT_TRUE(p.Get("nothing").is_null());
    ASSERT_EQ(p.Get("array").items().size(), 3u);
    EXPECT_EQ(p.Get("array").items()[2].AsString(), "three");
  }
}

TEST_F(ObsJsonTest, ParseRejectsMalformedInput) {
  EXPECT_FALSE(Json::Parse("").ok());
  EXPECT_FALSE(Json::Parse("{").ok());
  EXPECT_FALSE(Json::Parse("[1, 2,]").ok());
  EXPECT_FALSE(Json::Parse("{\"a\": 1} trailing").ok());
  EXPECT_FALSE(Json::Parse("'single'").ok());
  EXPECT_FALSE(Json::Parse("nul").ok());
}

TEST_F(ObsExportTest, MetricsJsonRoundTrip) {
  obs::SetMetricsEnabled(true);
  MetricsRegistry::Global().GetCounter("t.export.counter").Add(7);
  MetricsRegistry::Global().GetGauge("t.export.gauge").Set(1.25);
  MetricsRegistry::Global().GetHistogram("t.export.hist").Record(0.25);
  {
    Span outer("export_outer");
    Span inner("export_inner");
  }

  const auto parsed = Json::Parse(obs::DumpMetricsJson());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const Json& m = parsed.value();
  EXPECT_EQ(m.Get("counters").Get("t.export.counter").AsNumber(), 7.0);
  EXPECT_EQ(m.Get("gauges").Get("t.export.gauge").AsNumber(), 1.25);
  const Json& hist = m.Get("histograms").Get("t.export.hist");
  EXPECT_EQ(hist.Get("count").AsNumber(), 1.0);
  EXPECT_EQ(hist.Get("sum").AsNumber(), 0.25);
  ASSERT_TRUE(m.Has("spans"));
  bool found_nested = false;
  for (const Json& span : m.Get("spans").items()) {
    if (span.Get("path").AsString() == "export_outer/export_inner") {
      found_nested = true;
      EXPECT_EQ(span.Get("count").AsNumber(), 1.0);
    }
  }
  EXPECT_TRUE(found_nested);

  const std::string tree = obs::RenderSpanTree(m);
  EXPECT_NE(tree.find("export_outer"), std::string::npos);
  EXPECT_NE(tree.find("export_inner"), std::string::npos);
}

// Observability must be a pure read on the pipeline: enabling it cannot
// change a single selected feature or move a prediction by one ulp.
TEST_F(ObsPipelineTest, MetricsEnabledChangesNoPipelineOutput) {
  WorkbenchConfig config;
  config.workloads = {"TPC-C", "Twitter"};
  config.skus = {MakeCpuSku(2), MakeCpuSku(8)};
  config.terminals = {8};
  config.runs = 2;
  config.sim.duration_s = 30.0;
  config.sim.sample_period_s = 0.5;
  const ExperimentCorpus corpus = GenerateCorpus(config).value();

  const auto run = [&](bool metrics_on) {
    const bool was_enabled = obs::MetricsEnabled();
    obs::SetMetricsEnabled(metrics_on);
    PipelineConfig pc;
    pc.selector = "fANOVA";
    Pipeline pipeline(pc);
    EXPECT_TRUE(pipeline.Fit(corpus).ok());
    const auto ranked = pipeline.RankWorkloads(corpus[0]).value();
    const auto prediction = pipeline.PredictThroughput(corpus[0], 8).value();
    std::vector<double> outputs;
    for (const auto& r : ranked) outputs.push_back(r.mean_distance);
    outputs.push_back(prediction.throughput_tps);
    obs::SetMetricsEnabled(was_enabled);
    return outputs;
  };

  const std::vector<double> plain = run(false);
  const std::vector<double> instrumented = run(true);
  ASSERT_EQ(plain.size(), instrumented.size());
  for (size_t i = 0; i < plain.size(); ++i) {
    EXPECT_EQ(plain[i], instrumented[i]) << "output " << i << " diverged";
  }
  // And the instrumented run actually recorded the stage spans.
  const auto spans = SpanRegistry::Global().Snapshot();
  EXPECT_TRUE(spans.count("pipeline.fit"));
  EXPECT_TRUE(spans.count("pipeline.fit/feature_selection"));
}


TEST(MetricsEnvParseTest, RecognisedBooleans) {
  using obs::internal::ParseMetricsEnv;
  EXPECT_FALSE(ParseMetricsEnv(nullptr).enabled);
  EXPECT_FALSE(ParseMetricsEnv(nullptr).rejected);
  for (const char* off : {"", "0", "false", "off", "no", "FALSE", "Off"}) {
    const auto parsed = ParseMetricsEnv(off);
    EXPECT_FALSE(parsed.enabled) << "value: \"" << off << "\"";
    EXPECT_FALSE(parsed.rejected) << "value: \"" << off << "\"";
  }
  for (const char* on : {"1", "true", "on", "yes", "TRUE", "On"}) {
    const auto parsed = ParseMetricsEnv(on);
    EXPECT_TRUE(parsed.enabled) << "value: \"" << on << "\"";
    EXPECT_FALSE(parsed.rejected) << "value: \"" << on << "\"";
  }
}

TEST(MetricsEnvParseTest, GarbageRejectedAndStaysDisabled) {
  using obs::internal::ParseMetricsEnv;
  for (const char* bad : {"2", "-1", "enable", "json", "tru", "0x1", " 1"}) {
    const auto parsed = ParseMetricsEnv(bad);
    EXPECT_TRUE(parsed.rejected) << "value: \"" << bad << "\"";
    EXPECT_FALSE(parsed.enabled) << "value: \"" << bad << "\"";
  }
}

// Edge cases below mirror fuzz/corpus/json; fuzz/json_fuzz.cc replays them
// on every toolchain and these pin the exact accept/reject behaviour.

TEST(JsonEdgeCaseTest, DeeplyNestedInputIsRejectedNotACrash) {
  // Under the 192-level parser bound: accepted.
  std::string shallow(100, '[');
  shallow.append("1");
  shallow.append(100, ']');
  EXPECT_TRUE(obs::Json::Parse(shallow).ok());
  // Hostile nesting depth: a clean InvalidArgument, not a stack overflow.
  std::string deep(100000, '[');
  const auto rejected = obs::Json::Parse(deep);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(rejected.status().message().find("nesting"), std::string::npos);
  // Width at fixed depth is not nesting; sibling containers never trip it.
  std::string wide = "[";
  for (int i = 0; i < 300; ++i) wide += "[1],";
  wide += "[1]]";
  EXPECT_TRUE(obs::Json::Parse(wide).ok());
}

TEST(JsonEdgeCaseTest, TruncatedDocumentsRejectCleanly) {
  for (const char* text :
       {"{\"a\": [1, 2", "{\"k\"", "\"abc", "[1,", "{", "tru", "-", ""}) {
    const auto parsed = obs::Json::Parse(text);
    EXPECT_FALSE(parsed.ok()) << "input: " << text;
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument) << text;
  }
}

TEST(JsonEdgeCaseTest, OverflowingNumbersAreRejected) {
  for (const char* text : {"1e999", "-1e999", "[1, 1e309]"}) {
    const auto parsed = obs::Json::Parse(text);
    EXPECT_FALSE(parsed.ok()) << "input: " << text;
  }
  // The largest finite doubles still parse.
  EXPECT_TRUE(obs::Json::Parse("1.7976931348623157e308").ok());
  EXPECT_TRUE(obs::Json::Parse("-1.7976931348623157e308").ok());
}

TEST(JsonEdgeCaseTest, DumpParseDumpIsAFixpoint) {
  for (const char* text :
       {"{\"metrics\": {\"ml.mlp.fits\": 3, \"ratio\": 0.25}, "
        "\"tags\": [\"a\", \"b\"]}",
        "[1, -2.5, 1e10, true, false, null, \"str\"]",
        "{\"esc\": \"line\\nbreak \\\"q\\\" \\u0041 tab\\t\"}",
        "  {  }  ", "[[[[[[[[[[1]]]]]]]]]]"}) {
    const auto parsed = obs::Json::Parse(text);
    ASSERT_TRUE(parsed.ok()) << text;
    for (const int indent : {0, 2}) {
      const std::string dumped = parsed.value().Dump(indent);
      const auto reparsed = obs::Json::Parse(dumped);
      ASSERT_TRUE(reparsed.ok()) << dumped;
      EXPECT_EQ(reparsed.value().Dump(indent), dumped) << text;
    }
  }
}

}  // namespace
}  // namespace wpred
