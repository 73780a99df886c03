#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/parallel.h"
#include "common/rng.h"
#include "core/workbench.h"
#include "linalg/stats.h"
#include "obs/metrics.h"
#include "sim/des.h"
#include "sim/engine.h"
#include "sim/hardware.h"
#include "sim/mva.h"
#include "sim/plan_synth.h"
#include "sim/workload_spec.h"
#include "telemetry/feature_catalog.h"

namespace wpred {
namespace {

TEST(DesTest, EventsRunInTimeOrderWithFifoTies) {
  Simulator sim;
  std::vector<int> order;
  sim.Schedule(2.0, {3});
  sim.Schedule(1.0, {1});
  sim.Schedule(1.0, {2});  // same time, later insert
  sim.RunUntil(10.0, [&](const Event& e) { order.push_back(e.tag.kind); });
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(sim.now(), 10.0);
  EXPECT_EQ(sim.processed_events(), 3u);
}

TEST(DesTest, RunUntilStopsAtBoundary) {
  Simulator sim;
  bool ran = false;
  const auto run = [&](const Event&) { ran = true; };
  sim.Schedule(5.0, {});
  sim.RunUntil(4.0, run);
  EXPECT_FALSE(ran);
  EXPECT_DOUBLE_EQ(sim.now(), 4.0);
  sim.RunUntil(6.0, run);
  EXPECT_TRUE(ran);
}

TEST(DesTest, NestedSchedulingFromCallbacks) {
  Simulator sim;
  double fired_at = -1.0;
  sim.Schedule(1.0, {0});
  sim.RunUntil(10.0, [&](const Event& e) {
    if (e.tag.kind == 0) {
      sim.Schedule(2.0, {1});
    } else {
      fired_at = sim.now();
    }
  });
  EXPECT_DOUBLE_EQ(fired_at, 3.0);
}

TEST(DesTest, EventsCarryTheirTag) {
  Simulator sim;
  sim.Schedule(1.0, {7, -3, 0.25});
  std::vector<Event> seen;
  sim.RunUntil(2.0, [&](const Event& e) { seen.push_back(e); });
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(seen[0].tag.kind, 7);
  EXPECT_EQ(seen[0].tag.id, -3);
  EXPECT_DOUBLE_EQ(seen[0].tag.arg, 0.25);
  EXPECT_DOUBLE_EQ(seen[0].time, 1.0);
}

// Runs `sim` until `until`, completing every event on `station` and
// recording the clock at each completion.
std::vector<double> RunStation(Simulator& sim, FcfsStation& station,
                               double until) {
  std::vector<double> done;
  sim.RunUntil(until, [&](const Event& e) {
    station.Complete(e);
    done.push_back(sim.now());
  });
  return done;
}

TEST(FcfsStationTest, SingleServerSerializesJobs) {
  Simulator sim;
  FcfsStation station(&sim, 1);
  station.Submit(1.0, {});
  station.Submit(1.0, {});
  const std::vector<double> done = RunStation(sim, station, 10.0);
  ASSERT_EQ(done.size(), 2u);
  EXPECT_DOUBLE_EQ(done[0], 1.0);
  EXPECT_DOUBLE_EQ(done[1], 2.0);  // waited for the first
  EXPECT_DOUBLE_EQ(station.total_wait_time(), 1.0);
  EXPECT_EQ(station.completed(), 2u);
}

TEST(FcfsStationTest, MultiServerRunsInParallel) {
  Simulator sim;
  FcfsStation station(&sim, 2);
  station.Submit(1.0, {});
  station.Submit(1.0, {});
  station.Submit(1.0, {});
  const std::vector<double> done = RunStation(sim, station, 10.0);
  ASSERT_EQ(done.size(), 3u);
  EXPECT_DOUBLE_EQ(done[0], 1.0);
  EXPECT_DOUBLE_EQ(done[1], 1.0);
  EXPECT_DOUBLE_EQ(done[2], 2.0);
}

TEST(FcfsStationTest, BusyIntegralTracksUtilization) {
  Simulator sim;
  FcfsStation station(&sim, 2);
  station.Submit(2.0, {});
  station.Submit(1.0, {});
  RunStation(sim, station, 4.0);
  // One server busy 2 s, the other 1 s.
  EXPECT_DOUBLE_EQ(station.BusyIntegral(), 3.0);
  EXPECT_DOUBLE_EQ(station.total_service_time(), 3.0);
}

// The waiting ring wraps and grows while it drains: 20 queued jobs behind
// one server, submitted in two waves, still finish in arrival order.
TEST(FcfsStationTest, WaitingJobsKeepArrivalOrderAcrossRingGrowth) {
  Simulator sim;
  FcfsStation station(&sim, 1);
  for (int i = 0; i < 6; ++i) station.Submit(1.0, {i});
  std::vector<int> order;
  const auto complete = [&](const Event& e) {
    station.Complete(e);
    order.push_back(e.tag.kind);
  };
  sim.RunUntil(3.5, complete);  // jobs 0-2 done; the ring head has moved
  for (int i = 6; i < 21; ++i) station.Submit(1.0, {i});
  EXPECT_EQ(station.queue_length(), 17u);
  sim.RunUntil(100.0, complete);
  ASSERT_EQ(order.size(), 21u);
  for (int i = 0; i < 21; ++i) EXPECT_EQ(order[i], i);
  EXPECT_EQ(station.queue_length(), 0u);
  EXPECT_DOUBLE_EQ(station.total_service_time(), 21.0);
}

TEST(WorkloadSpecTest, Table1MetadataMatchesPaper) {
  const WorkloadSpec tpcc = MakeTpcC();
  EXPECT_EQ(tpcc.tables, 9);
  EXPECT_EQ(tpcc.columns, 92);
  EXPECT_EQ(tpcc.indexes, 1);
  EXPECT_EQ(tpcc.transactions.size(), 5u);
  EXPECT_NEAR(tpcc.ReadOnlyFraction(), 0.08, 0.001);
  EXPECT_EQ(tpcc.type, WorkloadType::kTransactional);

  const WorkloadSpec tpch = MakeTpcH();
  EXPECT_EQ(tpch.transactions.size(), 22u);
  EXPECT_DOUBLE_EQ(tpch.ReadOnlyFraction(), 1.0);
  EXPECT_TRUE(tpch.serial_only);

  const WorkloadSpec tpcds = MakeTpcDs();
  EXPECT_EQ(tpcds.transactions.size(), 99u);
  EXPECT_EQ(tpcds.tables, 24);
  EXPECT_EQ(tpcds.columns, 425);

  const WorkloadSpec twitter = MakeTwitter();
  EXPECT_EQ(twitter.transactions.size(), 5u);
  EXPECT_NEAR(twitter.ReadOnlyFraction(), 0.99, 0.001);

  const WorkloadSpec ycsb = MakeYcsb();
  EXPECT_EQ(ycsb.tables, 1);
  EXPECT_EQ(ycsb.indexes, 0);
  EXPECT_NEAR(ycsb.access_skew, 0.99, 1e-9);
  EXPECT_NEAR(ycsb.ReadOnlyFraction(), 0.40, 0.01);

  const WorkloadSpec pw = MakeProductionWorkload();
  EXPECT_GE(pw.transactions.size(), 500u);
  EXPECT_GT(pw.ReadOnlyFraction(), 0.85);  // "Mostly" read-only
}

TEST(WorkloadSpecTest, LookupByName) {
  for (const char* name :
       {"TPC-C", "TPC-H", "TPC-DS", "Twitter", "YCSB", "PW"}) {
    const auto w = WorkloadByName(name);
    ASSERT_TRUE(w.ok()) << name;
    EXPECT_EQ(w.value().name, name);
  }
  EXPECT_FALSE(WorkloadByName("NOPE").ok());
}

TEST(WorkloadSpecTest, SpecsAreBitStable) {
  // Programmatic query generation must be deterministic across calls.
  const WorkloadSpec a = MakeTpcH();
  const WorkloadSpec b = MakeTpcH();
  ASSERT_EQ(a.transactions.size(), b.transactions.size());
  for (size_t i = 0; i < a.transactions.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.transactions[i].cpu_ms, b.transactions[i].cpu_ms);
    EXPECT_DOUBLE_EQ(a.transactions[i].logical_ios,
                     b.transactions[i].logical_ios);
  }
}

TEST(HardwareTest, LadderAndSpecialSkus) {
  const auto ladder = DefaultSkuLadder();
  ASSERT_EQ(ladder.size(), 4u);
  EXPECT_EQ(ladder[0].cpus, 2);
  EXPECT_EQ(ladder[3].cpus, 16);
  EXPECT_DOUBLE_EQ(ladder[3].memory_gb, 128.0);
  EXPECT_EQ(MakeLargeSku().cpus, 80);
  EXPECT_EQ(MakeS1().cpus, 4);
  EXPECT_DOUBLE_EQ(MakeS1().memory_gb, 32.0);
  EXPECT_EQ(MakeS2().cpus, 8);
  EXPECT_DOUBLE_EQ(MakeS2().memory_gb, 64.0);
}

RunRequest QuickRequest(WorkloadSpec workload, int cpus, int terminals,
                        uint64_t seed = 42, int data_group = 0) {
  RunRequest request;
  request.workload = std::move(workload);
  request.sku = MakeCpuSku(cpus);
  request.terminals = terminals;
  request.config.duration_s = 60.0;
  request.config.sample_period_s = 0.5;
  request.config.seed = seed;
  request.config.data_group = data_group;
  return request;
}

TEST(EngineTest, ProducesExpectedTelemetryShape) {
  const auto result = RunExperiment(QuickRequest(MakeTpcC(), 4, 8));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const Experiment& e = result.value();
  EXPECT_EQ(e.resource.num_samples(), 120u);  // 60 s / 0.5 s
  EXPECT_EQ(e.resource.values.cols(), kNumResourceFeatures);
  EXPECT_EQ(e.plans.values.cols(), kNumPlanFeatures);
  EXPECT_EQ(e.plans.num_observations(), 15u);  // 5 types x 3 observations
  EXPECT_GT(e.perf.throughput_tps, 0.0);
  EXPECT_GT(e.perf.mean_latency_ms, 0.0);
  EXPECT_EQ(e.perf.latency_ms_by_type.size(), 5u);
}

TEST(EngineTest, DeterministicForSameSeed) {
  const auto a = RunExperiment(QuickRequest(MakeYcsb(), 4, 8, 7));
  const auto b = RunExperiment(QuickRequest(MakeYcsb(), 4, 8, 7));
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a.value().resource.values, b.value().resource.values);
  EXPECT_DOUBLE_EQ(a.value().perf.throughput_tps, b.value().perf.throughput_tps);
}

TEST(EngineTest, SeedChangesTelemetry) {
  const auto a = RunExperiment(QuickRequest(MakeYcsb(), 4, 8, 7));
  const auto b = RunExperiment(QuickRequest(MakeYcsb(), 4, 8, 8));
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_NE(a.value().resource.values, b.value().resource.values);
}

TEST(EngineTest, TpccThroughputScalesWithCpus) {
  const auto small = RunExperiment(QuickRequest(MakeTpcC(), 2, 32));
  const auto large = RunExperiment(QuickRequest(MakeTpcC(), 16, 32));
  ASSERT_TRUE(small.ok());
  ASSERT_TRUE(large.ok());
  EXPECT_GT(large.value().perf.throughput_tps,
            1.3 * small.value().perf.throughput_tps);
}

TEST(EngineTest, ScalingIsSubLinear) {
  // Closed-loop terminals + contention: 8x CPUs must not give 8x throughput.
  const auto small = RunExperiment(QuickRequest(MakeTpcC(), 2, 32));
  const auto large = RunExperiment(QuickRequest(MakeTpcC(), 16, 32));
  ASSERT_TRUE(small.ok());
  ASSERT_TRUE(large.ok());
  EXPECT_LT(large.value().perf.throughput_tps,
            8.0 * small.value().perf.throughput_tps);
}

TEST(EngineTest, LockActivitySeparatesOltpFromOlap) {
  const auto tpcc = RunExperiment(QuickRequest(MakeTpcC(), 4, 16));
  const auto tpch = RunExperiment(QuickRequest(MakeTpcH(), 4, 16));
  ASSERT_TRUE(tpcc.ok());
  ASSERT_TRUE(tpch.ok());
  const double tpcc_locks =
      Mean(tpcc.value().resource.values.Col(IndexOf(FeatureId::kLockReqAbs)));
  const double tpch_locks =
      Mean(tpch.value().resource.values.Col(IndexOf(FeatureId::kLockReqAbs)));
  EXPECT_GT(tpcc_locks, 100.0 * (tpch_locks + 1.0));
}

TEST(EngineTest, SerialWorkloadIgnoresTerminals) {
  const auto a = RunExperiment(QuickRequest(MakeTpcH(), 4, 1));
  const auto b = RunExperiment(QuickRequest(MakeTpcH(), 4, 32));
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(b.value().terminals, 1);
  // Identical seed + forced single terminal: identical runs.
  EXPECT_DOUBLE_EQ(a.value().perf.throughput_tps,
                   b.value().perf.throughput_tps);
}

// Oracle-free check of the closed-loop simulator: N terminals cycling
// through a transaction (mean response time R) and a think (mean Z) obey the
// interactive response-time law N = X·(R + Z), with X the completed-
// transaction throughput. A lost or double-counted transaction breaks it.
// Serial workloads run on one terminal whatever was requested. At the
// cut-off each terminal may hold one unfinished cycle, which explains up to
// about 2N/C of relative error over C completed transactions.
TEST(EngineTest, ResponseTimeLawHolds) {
  std::vector<RunRequest> requests;
  for (const WorkloadSpec& spec : StandardBenchmarks()) {
    for (int cpus : {2, 8}) {
      for (int terminals : {4, 32}) {
        requests.push_back(QuickRequest(spec, cpus, terminals));
      }
    }
  }
  std::vector<PerfSummary> perf(requests.size());
  ASSERT_TRUE(ParallelFor(requests.size(), [&](size_t i) -> Status {
                WPRED_ASSIGN_OR_RETURN(Experiment e,
                                       RunExperiment(requests[i]));
                perf[i] = std::move(e.perf);
                return Status::OK();
              }).ok());
  for (size_t i = 0; i < requests.size(); ++i) {
    const RunRequest& request = requests[i];
    const WorkloadSpec& spec = request.workload;
    const double n = spec.serial_only ? 1.0 : request.terminals;
    const double x = perf[i].throughput_tps;
    const double r = perf[i].mean_latency_ms / 1000.0;
    const double z = spec.think_time_ms / 1000.0;
    const double completed = x * request.config.duration_s;
    ASSERT_GT(completed, 0.0) << spec.name;
    EXPECT_LE(std::fabs(x * (r + z) - n) / n, 0.01 + 2.0 * n / completed)
        << spec.name << " at " << request.sku.cpus << " CPUs, "
        << request.terminals << " terminals: X=" << x << " R=" << r
        << " Z=" << z;
  }
}

TEST(EngineTest, MemoryUtilizationWarmsUp) {
  const auto result = RunExperiment(QuickRequest(MakeTpcC(), 4, 8));
  ASSERT_TRUE(result.ok());
  const Vector mem =
      result.value().resource.values.Col(IndexOf(FeatureId::kMemUtilization));
  const Vector head(mem.begin(), mem.begin() + 10);
  const Vector tail(mem.end() - 10, mem.end());
  EXPECT_GT(Mean(tail), 1.5 * Mean(head));
}

TEST(EngineTest, TpchSpillsOnSmallMemoryOnly) {
  const auto small = RunExperiment(QuickRequest(MakeTpcH(), 2, 1));
  const auto large = RunExperiment(QuickRequest(MakeTpcH(), 16, 1));
  ASSERT_TRUE(small.ok());
  ASSERT_TRUE(large.ok());
  // READ_WRITE_RATIO is the read fraction in [0,1]; spills add writes.
  const double small_rw = Mean(
      small.value().resource.values.Col(IndexOf(FeatureId::kReadWriteRatio)));
  const double large_rw = Mean(
      large.value().resource.values.Col(IndexOf(FeatureId::kReadWriteRatio)));
  EXPECT_LT(small_rw, large_rw);
}

TEST(EngineTest, DataGroupShiftsThroughput) {
  const auto g0 = RunExperiment(QuickRequest(MakeTpcC(), 2, 32, 42, 0));
  const auto g1 = RunExperiment(QuickRequest(MakeTpcC(), 2, 32, 42, 1));
  ASSERT_TRUE(g0.ok());
  ASSERT_TRUE(g1.ok());
  // Group 1 runs at 93% CPU speed; CPU-bound TPC-C slows down.
  EXPECT_GT(g0.value().perf.throughput_tps, g1.value().perf.throughput_tps);
}

TEST(EngineTest, CheckpointsProduceWriteBursts) {
  RunRequest with_cp = QuickRequest(MakeTpcC(), 4, 16);
  RunRequest without_cp = with_cp;
  without_cp.config.checkpoint_interval_s = 0.0;
  const auto a = RunExperiment(with_cp);
  const auto b = RunExperiment(without_cp);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  const Vector iops_cp =
      a.value().resource.values.Col(IndexOf(FeatureId::kIopsTotal));
  const Vector iops_plain =
      b.value().resource.values.Col(IndexOf(FeatureId::kIopsTotal));
  // Checkpoint bursts: the peak-to-median IOPS ratio grows markedly.
  const double spike_cp = Max(iops_cp) / (Median(iops_cp) + 1.0);
  const double spike_plain = Max(iops_plain) / (Median(iops_plain) + 1.0);
  EXPECT_GT(spike_cp, 2.0 * spike_plain);
}

// FNV-1a over the bytes of every value the simulator hands downstream.
class Fnv1a {
 public:
  void Bytes(const void* data, size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < n; ++i) {
      h_ = (h_ ^ p[i]) * 1099511628211ULL;
    }
  }
  void Double(double v) { Bytes(&v, sizeof v); }
  void U64(uint64_t v) { Bytes(&v, sizeof v); }
  void Str(const std::string& s) {
    U64(s.size());
    Bytes(s.data(), s.size());
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 14695981039346656037ULL;
};

uint64_t SimEventsProcessed() {
  return obs::MetricsRegistry::Global()
      .GetCounter("sim.events_processed")
      .value();
}

// Golden oracle of the simulator: a digest of RunOne's output over every
// workload (PW's 500+ transaction types included) at two SKUs, two terminal
// counts and three runs. The value was computed before the typed-event
// kernel replaced the callback kernel; any change to event order, RNG draw
// order or floating-point evaluation order moves it.
TEST(EngineTest, GoldenDigestPinsRunOneOutput) {
  SimConfig sim;
  sim.duration_s = 30.0;
  const bool metrics_were_enabled = obs::MetricsEnabled();
  obs::SetMetricsEnabled(true);
  const uint64_t events_before = SimEventsProcessed();
  Fnv1a digest;
  for (const char* workload :
       {"TPC-C", "Twitter", "TPC-H", "TPC-DS", "YCSB", "PW"}) {
    for (int cpus : {2, 8}) {
      for (int terminals : {4, 32}) {
        for (int run = 0; run < 3; ++run) {
          const auto e =
              RunOne(workload, MakeCpuSku(cpus), terminals, run, sim, 0xbe9c4);
          ASSERT_TRUE(e.ok()) << e.status().ToString();
          for (double v : e.value().resource.values.data()) digest.Double(v);
          for (double v : e.value().plans.values.data()) digest.Double(v);
          const PerfSummary& perf = e.value().perf;
          digest.Double(perf.throughput_tps);
          digest.Double(perf.mean_latency_ms);
          for (const auto& [name, v] : perf.latency_ms_by_type) {
            digest.Str(name);
            digest.Double(v);
          }
          for (const auto& [name, v] : perf.throughput_tps_by_type) {
            digest.Str(name);
            digest.Double(v);
          }
        }
      }
    }
  }
  const uint64_t events = SimEventsProcessed() - events_before;
  obs::SetMetricsEnabled(metrics_were_enabled);
  digest.U64(events);
  EXPECT_EQ(events, 5580218u);
  EXPECT_EQ(digest.value(), 11801176868821394969ULL);
}

TEST(EngineTest, RejectsInvalidConfig) {
  RunRequest bad = QuickRequest(MakeTpcC(), 4, 8);
  bad.config.duration_s = -1.0;
  EXPECT_FALSE(RunExperiment(bad).ok());

  bad = QuickRequest(MakeTpcC(), 4, 8);
  bad.config.sample_period_s = 1000.0;
  EXPECT_FALSE(RunExperiment(bad).ok());

  bad = QuickRequest(MakeTpcC(), 4, 0);
  EXPECT_FALSE(RunExperiment(bad).ok());

  bad = QuickRequest(MakeTpcC(), 4, 8);
  bad.workload.transactions.clear();
  EXPECT_FALSE(RunExperiment(bad).ok());
}

TEST(BufferHitRateTest, MonotoneInTimeAndMemory) {
  const WorkloadSpec w = MakeYcsb();
  EXPECT_LT(BufferHitRate(w, MakeCpuSku(2), 5.0),
            BufferHitRate(w, MakeCpuSku(2), 100.0));
  EXPECT_LE(BufferHitRate(w, MakeCpuSku(2), 100.0),
            BufferHitRate(w, MakeCpuSku(16), 100.0));
  EXPECT_LE(BufferHitRate(w, MakeCpuSku(16), 1e9), 0.985);
}

TEST(MemoryGrantTest, ShrinksWithConcurrency) {
  const Sku sku = MakeCpuSku(4);
  EXPECT_GT(MemoryGrantCapMb(sku, 1), MemoryGrantCapMb(sku, 16));
  EXPECT_GT(MemoryGrantCapMb(MakeCpuSku(16), 4), MemoryGrantCapMb(sku, 4));
}

TEST(PlanSynthTest, ShapeAndDeterminism) {
  const WorkloadSpec w = MakeTwitter();
  Rng rng_a(3);
  Rng rng_b(3);
  const auto a = SynthesizePlanStats(w, MakeCpuSku(4), 3, rng_a);
  const auto b = SynthesizePlanStats(w, MakeCpuSku(4), 3, rng_b);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a.value().values.rows(), 15u);
  EXPECT_EQ(a.value().values, b.value().values);
  EXPECT_EQ(a.value().query_names[0], "GetTweet");
}

TEST(PlanSynthTest, CostModelSeparatesWorkloadClasses) {
  const Sku sku = MakeCpuSku(4);
  const WorkloadSpec tpch = MakeTpcH();
  const WorkloadSpec twitter = MakeTwitter();
  const size_t io_col = IndexOf(FeatureId::kEstimateIo) - kNumResourceFeatures;
  const size_t row_col = IndexOf(FeatureId::kAvgRowSize) - kNumResourceFeatures;
  const Vector tpch_q1 = PlanFeatureBase(tpch, tpch.transactions[0], sku);
  const Vector twitter_get =
      PlanFeatureBase(twitter, twitter.transactions[0], sku);
  EXPECT_GT(tpch_q1[io_col], 1000.0 * twitter_get[io_col]);
  EXPECT_GT(tpch_q1[row_col], twitter_get[row_col]);
}

TEST(PlanSynthTest, DopReflectsSku) {
  const WorkloadSpec tpch = MakeTpcH();
  const size_t dop_col =
      IndexOf(FeatureId::kEstimatedAvailableDegreeOfParallelism) -
      kNumResourceFeatures;
  const Vector on2 = PlanFeatureBase(tpch, tpch.transactions[0], MakeCpuSku(2));
  const Vector on16 =
      PlanFeatureBase(tpch, tpch.transactions[0], MakeCpuSku(16));
  EXPECT_DOUBLE_EQ(on2[dop_col], 2.0);
  EXPECT_DOUBLE_EQ(on16[dop_col], 16.0);
}

TEST(PlanSynthTest, RejectsBadArguments) {
  const WorkloadSpec w = MakeTwitter();
  Rng rng(3);
  EXPECT_FALSE(SynthesizePlanStats(w, MakeCpuSku(4), 0, rng).ok());
  WorkloadSpec empty = w;
  empty.transactions.clear();
  EXPECT_FALSE(SynthesizePlanStats(empty, MakeCpuSku(4), 3, rng).ok());
}

TEST(MvaTest, SingleCustomerSingleStation) {
  const auto r = SolveClosedNetwork({{"cpu", 0.5, 1}}, 1, 0.0);
  ASSERT_TRUE(r.ok());
  EXPECT_NEAR(r.value().throughput, 2.0, 1e-12);
  EXPECT_NEAR(r.value().response_time_s, 0.5, 1e-12);
  EXPECT_NEAR(r.value().utilization[0], 1.0, 1e-12);
}

TEST(MvaTest, ThinkTimeBoundsThroughput) {
  // Asymptotic bound: X <= N / Z.
  const auto r = SolveClosedNetwork({{"cpu", 0.01, 1}}, 10, 1.0);
  ASSERT_TRUE(r.ok());
  EXPECT_LE(r.value().throughput, 10.0 / 1.0 + 1e-9);
  EXPECT_GT(r.value().throughput, 9.0);  // lightly loaded
}

TEST(MvaTest, BottleneckBoundsThroughput) {
  // X <= 1 / max demand per server.
  const auto r = SolveClosedNetwork({{"cpu", 0.2, 2}, {"io", 0.05, 1}}, 50, 0.0);
  ASSERT_TRUE(r.ok());
  EXPECT_LE(r.value().throughput, 1.0 / 0.1 + 1e-9);
  EXPECT_NEAR(r.value().throughput, 10.0, 0.5);  // saturated bottleneck
  EXPECT_LE(r.value().utilization[0], 1.0 + 1e-9);
}

TEST(MvaTest, ThroughputMonotoneInPopulation) {
  double prev = 0.0;
  for (int n = 1; n <= 20; ++n) {
    const auto r = SolveClosedNetwork({{"cpu", 0.1, 2}}, n, 0.2);
    ASSERT_TRUE(r.ok());
    EXPECT_GE(r.value().throughput, prev - 1e-12);
    prev = r.value().throughput;
  }
}

TEST(MvaTest, RejectsBadInputs) {
  EXPECT_FALSE(SolveClosedNetwork({{"cpu", 0.1, 1}}, 0, 0.0).ok());
  EXPECT_FALSE(SolveClosedNetwork({{"cpu", -0.1, 1}}, 1, 0.0).ok());
  EXPECT_FALSE(SolveClosedNetwork({{"cpu", 0.1, 0}}, 1, 0.0).ok());
  EXPECT_FALSE(SolveClosedNetwork({{"cpu", 0.1, 1}}, 1, -1.0).ok());
}

TEST(MvaEngineCrossCheck, CpuBoundThroughputAgrees) {
  // A lock-free, IO-free CPU-bound workload should match MVA within ~15%.
  WorkloadSpec w = MakeTwitter();
  for (TxnTypeSpec& t : w.transactions) {
    t.locks_acquired = 0;
    t.logical_ios = 0;
    t.is_write = false;
    t.query_memory_mb = 0;
  }
  w.access_skew = 0.0;
  const int terminals = 16;
  const auto sim_result = RunExperiment(QuickRequest(w, 2, terminals));
  ASSERT_TRUE(sim_result.ok());

  double mean_cpu_ms = 0.0, total_weight = 0.0;
  for (const TxnTypeSpec& t : w.transactions) {
    mean_cpu_ms += t.weight * t.cpu_ms;
    total_weight += t.weight;
  }
  mean_cpu_ms /= total_weight;
  const auto mva = SolveClosedNetwork({{"cpu", mean_cpu_ms / 1000.0, 2}},
                                      terminals, w.think_time_ms / 1000.0);
  ASSERT_TRUE(mva.ok());
  EXPECT_NEAR(sim_result.value().perf.throughput_tps, mva.value().throughput,
              0.15 * mva.value().throughput);
}

}  // namespace
}  // namespace wpred
