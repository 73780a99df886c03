// Tests for the deterministic parallel substrate (common/parallel.h) and
// its contract at the wired hot paths: bit-identical outputs at threads=1
// vs threads=8, first-error-wins propagation with drain, and a serial
// fallback that touches zero thread-pool code.

#include <atomic>
#include <cstdint>
#include <cstring>
#include <limits>
#include <numeric>
#include <vector>

#include <gtest/gtest.h>

#include "common/parallel.h"
#include "common/rng.h"
#include "core/pipeline.h"
#include "core/workbench.h"
#include "featsel/wrapper.h"
#include "ml/random_forest.h"
#include "sim/hardware.h"
#include "similarity/measures.h"
#include "telemetry/experiment.h"
#include "telemetry/feature_catalog.h"

namespace wpred {
namespace {

constexpr int kThreads = 8;

TEST(ParallelForTest, VisitsEveryIndexExactlyOnce) {
  const size_t n = 1000;
  std::vector<int> hits(n, 0);
  ASSERT_TRUE(ParallelFor(n, kThreads, [&](size_t i) -> Status {
                ++hits[i];  // slot-indexed write
                return Status::OK();
              }).ok());
  for (size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i], 1) << "index " << i;
}

TEST(ParallelForTest, SerialFallbackTouchesNoThreadPoolCode) {
  const bool pool_existed = ThreadPool::SharedCreated();
  const uint64_t tasks_before =
      pool_existed ? ThreadPool::Shared().tasks_executed() : 0;
  std::vector<int> hits(64, 0);
  ASSERT_TRUE(ParallelFor(hits.size(), /*num_threads=*/1,
                          [&](size_t i) -> Status {
                            ++hits[i];
                            return Status::OK();
                          })
                  .ok());
  EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0), 64);
  // threads=1 must not create the pool, and if one already exists (another
  // test ran parallel first), must not hand it a single task.
  EXPECT_EQ(ThreadPool::SharedCreated(), pool_existed);
  if (pool_existed) {
    EXPECT_EQ(ThreadPool::Shared().tasks_executed(), tasks_before);
  }
}

TEST(ParallelForTest, EmptyRangeAndSingleIndex) {
  EXPECT_TRUE(ParallelFor(0, kThreads, [](size_t) -> Status {
                ADD_FAILURE() << "fn called for empty range";
                return Status::OK();
              }).ok());
  int calls = 0;
  EXPECT_TRUE(ParallelFor(1, kThreads, [&](size_t) -> Status {
                ++calls;
                return Status::OK();
              }).ok());
  EXPECT_EQ(calls, 1);
}

TEST(ParallelForTest, FirstErrorWinsSerial) {
  // Serial: iteration stops at the first failing index.
  std::atomic<int> executed{0};
  const Status st = ParallelFor(100, /*num_threads=*/1, [&](size_t i) -> Status {
    ++executed;
    if (i >= 7) return Status::NumericalError("cell " + std::to_string(i));
    return Status::OK();
  });
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kNumericalError);
  EXPECT_EQ(st.message(), "cell 7");
  EXPECT_EQ(executed.load(), 8);
}

TEST(ParallelForTest, FailingCellAbortsWithFirstStatusAndDrains) {
  // Index 0 runs in chunk 0 on the calling thread, so its error is always
  // recorded; every other chunk drains once the abort flag is up.
  std::atomic<int> executed{0};
  const Status st = ParallelFor(10000, kThreads, [&](size_t i) -> Status {
    ++executed;
    if (i == 0) return Status::InvalidArgument("bad cell 0");
    return Status::OK();
  });
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(st.message(), "bad cell 0");
  EXPECT_LE(executed.load(), 10000);
}

TEST(ParallelForTest, AllIndicesFailingReportsLowestRecordedIndex) {
  // When every iteration fails, each chunk records its own first index and
  // the scan returns the globally lowest one — index 0 — regardless of
  // scheduling.
  const Status st = ParallelFor(256, kThreads, [&](size_t i) -> Status {
    return Status::NumericalError("cell " + std::to_string(i));
  });
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.message(), "cell 0");
}

TEST(ParallelForTest, NestedCallsRunInline) {
  // A ParallelFor inside a ParallelFor body must take the serial fallback
  // (no oversubscription, no deadlock) and still produce correct results.
  std::vector<int> totals(16, 0);
  ASSERT_TRUE(ParallelFor(totals.size(), kThreads, [&](size_t i) -> Status {
                int inner_sum = 0;
                WPRED_RETURN_IF_ERROR(
                    ParallelFor(10, kThreads, [&](size_t j) -> Status {
                      inner_sum += static_cast<int>(j);
                      return Status::OK();
                    }));
                totals[i] = inner_sum;
                return Status::OK();
              }).ok());
  for (int t : totals) EXPECT_EQ(t, 45);
}

TEST(ParallelMapTest, SlotIndexedResults) {
  const auto result =
      ParallelMap<double>(100, kThreads, [](size_t i) -> Result<double> {
        return static_cast<double>(i) * 0.5;
      });
  ASSERT_TRUE(result.ok());
  for (size_t i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ((*result)[i], static_cast<double>(i) * 0.5);
  }
}

TEST(ParallelMapTest, PropagatesError) {
  const auto result =
      ParallelMap<double>(100, kThreads, [](size_t i) -> Result<double> {
        if (i == 0) return Status::OutOfRange("boom");
        return 1.0;
      });
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kOutOfRange);
}

TEST(ThreadConfigTest, ResolveAndOverride) {
  SetDefaultNumThreads(3);
  EXPECT_EQ(DefaultNumThreads(), 3);
  EXPECT_EQ(ResolveNumThreads(0), 3);
  EXPECT_EQ(ResolveNumThreads(-5), 3);
  EXPECT_EQ(ResolveNumThreads(8), 8);
  SetDefaultNumThreads(0);  // back to the environment-derived default
  EXPECT_GE(DefaultNumThreads(), 1);
}

// --- Determinism suite: serial vs 8 threads, bit-identical. ---

Experiment SyntheticExperiment(const std::string& workload, double level,
                               uint64_t seed) {
  Rng rng(seed);
  Experiment e;
  e.workload = workload;
  e.type = WorkloadType::kMixed;
  e.resource.values = Matrix(40, kNumResourceFeatures);
  for (size_t r = 0; r < 40; ++r) {
    for (size_t c = 0; c < kNumResourceFeatures; ++c) {
      e.resource.values(r, c) = level * (1.0 + 0.1 * c) + rng.Gaussian(0, 0.05);
    }
  }
  e.plans.values = Matrix(6, kNumPlanFeatures);
  for (size_t r = 0; r < 6; ++r) {
    for (size_t c = 0; c < kNumPlanFeatures; ++c) {
      e.plans.values(r, c) = level * (2.0 + 0.05 * c) + rng.Gaussian(0, 0.05);
    }
  }
  e.plans.query_names.assign(6, "q");
  return e;
}

ExperimentCorpus SyntheticCorpus(size_t per_workload) {
  ExperimentCorpus corpus;
  uint64_t seed = 1;
  for (size_t i = 0; i < per_workload; ++i) {
    corpus.Add(SyntheticExperiment("A", 1.0 + 0.05 * i, seed++));
    corpus.Add(SyntheticExperiment("B", 5.0 + 0.05 * i, seed++));
    corpus.Add(SyntheticExperiment("C", 9.0 + 0.05 * i, seed++));
  }
  return corpus;
}

TEST(DeterminismTest, PairwiseDistancesBitIdenticalAcrossThreadCounts) {
  const ExperimentCorpus corpus = SyntheticCorpus(4);
  for (const std::string& measure :
       {std::string("Independent-DTW"), std::string("L2,1-Norm")}) {
    const Representation rep = measure == "Independent-DTW"
                                   ? Representation::kMts
                                   : Representation::kHistFp;
    const auto serial =
        PairwiseDistances(corpus, rep, measure, {0, 1, 2}, /*num_threads=*/1);
    const auto parallel =
        PairwiseDistances(corpus, rep, measure, {0, 1, 2}, kThreads);
    ASSERT_TRUE(serial.ok()) << serial.status().ToString();
    ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
    // Bitwise equality, not EXPECT_NEAR: the determinism contract.
    ASSERT_EQ(serial->data().size(), parallel->data().size());
    EXPECT_EQ(std::memcmp(serial->data().data(), parallel->data().data(),
                          serial->data().size() * sizeof(double)),
              0)
        << measure << " matrices differ between 1 and 8 threads";
  }
}

TEST(DeterminismTest, RandomForestClassifierBitIdenticalAcrossThreadCounts) {
  Rng rng(9);
  Matrix x(120, 2);
  std::vector<int> y(120);
  for (size_t i = 0; i < 120; ++i) {
    const int label = static_cast<int>(i % 2);
    x(i, 0) = label * 3.0 + rng.Gaussian(0, 0.5);
    x(i, 1) = -label * 2.0 + rng.Gaussian(0, 0.5);
    y[i] = label;
  }
  ForestParams serial_params;
  serial_params.num_trees = 24;
  serial_params.num_threads = 1;
  ForestParams parallel_params = serial_params;
  parallel_params.num_threads = kThreads;
  RandomForestClassifier serial(serial_params), parallel(parallel_params);
  ASSERT_TRUE(serial.Fit(x, y).ok());
  ASSERT_TRUE(parallel.Fit(x, y).ok());
  for (size_t i = 0; i < x.rows(); ++i) {
    EXPECT_EQ(serial.Predict(x.Row(i)).value(),
              parallel.Predict(x.Row(i)).value());
  }
}

// Small classification problem shared by the wrapper-selector tests.
struct SelectionProblem {
  Matrix x;
  std::vector<int> y;
};

SelectionProblem MakeSelectionProblem(size_t n, uint64_t seed) {
  Rng rng(seed);
  SelectionProblem p{Matrix(n, 5), std::vector<int>(n)};
  for (size_t i = 0; i < n; ++i) {
    const int label = static_cast<int>(i % 2);
    p.x(i, 0) = label * 2.0 + rng.Gaussian(0, 0.4);   // signal
    p.x(i, 1) = -label * 1.5 + rng.Gaussian(0, 0.4);  // signal
    for (size_t j = 2; j < 5; ++j) p.x(i, j) = rng.Uniform(-1, 1);  // noise
    p.y[i] = label;
  }
  return p;
}

TEST(DeterminismTest, RfeBitIdenticalAcrossThreadCounts) {
  const SelectionProblem p = MakeSelectionProblem(60, 21);
  RfeSelector serial(WrapperEstimator::kLogReg);
  serial.set_num_threads(1);
  RfeSelector parallel(WrapperEstimator::kLogReg);
  parallel.set_num_threads(kThreads);
  const auto a = serial.ScoreFeatures(p.x, p.y);
  const auto b = parallel.ScoreFeatures(p.x, p.y);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  for (size_t f = 0; f < a->size(); ++f) EXPECT_EQ((*a)[f], (*b)[f]);
}

TEST(DeterminismTest, SfsBitIdenticalAcrossThreadCounts) {
  const SelectionProblem p = MakeSelectionProblem(60, 22);
  for (const bool forward : {true, false}) {
    SfsSelector serial(WrapperEstimator::kDecisionTree, forward);
    serial.set_num_threads(1);
    SfsSelector parallel(WrapperEstimator::kDecisionTree, forward);
    parallel.set_num_threads(kThreads);
    const auto a = serial.ScoreFeatures(p.x, p.y);
    const auto b = parallel.ScoreFeatures(p.x, p.y);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    for (size_t f = 0; f < a->size(); ++f) {
      EXPECT_EQ((*a)[f], (*b)[f]) << (forward ? "forward" : "backward")
                                  << " feature " << f;
    }
  }
}

// GenerateCorpus runs its grid on the pool at the default thread count;
// every experiment lands in its coordinate's slot, so the corpus is the same
// bits, in the same order, at any thread count.
TEST(DeterminismTest, GenerateCorpusBitIdenticalAcrossThreadCounts) {
  WorkbenchConfig config;
  config.workloads = {"TPC-C", "TPC-H", "YCSB"};
  config.skus = {MakeCpuSku(2), MakeCpuSku(8)};
  config.terminals = {4, 8};
  config.runs = 2;
  config.sim.duration_s = 10.0;
  std::vector<ExperimentCorpus> corpora;
  for (int threads : {1, 2, 8}) {
    SetDefaultNumThreads(threads);
    auto corpus = GenerateCorpus(config);
    ASSERT_TRUE(corpus.ok()) << corpus.status().ToString();
    corpora.push_back(std::move(corpus).value());
  }
  SetDefaultNumThreads(0);
  const ExperimentCorpus& serial = corpora[0];
  ASSERT_EQ(serial.size(), 20u);  // TPC-H collapses the terminal axis
  for (size_t k = 1; k < corpora.size(); ++k) {
    const ExperimentCorpus& parallel = corpora[k];
    ASSERT_EQ(parallel.size(), serial.size());
    for (size_t i = 0; i < serial.size(); ++i) {
      const Experiment& a = serial[i];
      const Experiment& b = parallel[i];
      EXPECT_EQ(a.workload, b.workload) << i;
      EXPECT_EQ(a.cpus, b.cpus) << i;
      EXPECT_EQ(a.terminals, b.terminals) << i;
      EXPECT_EQ(a.run_id, b.run_id) << i;
      const auto same_bits = [](const Matrix& x, const Matrix& y) {
        return x.data().size() == y.data().size() &&
               std::memcmp(x.data().data(), y.data().data(),
                           x.data().size() * sizeof(double)) == 0;
      };
      EXPECT_TRUE(same_bits(a.resource.values, b.resource.values)) << i;
      EXPECT_TRUE(same_bits(a.plans.values, b.plans.values)) << i;
      EXPECT_EQ(std::memcmp(&a.perf.throughput_tps, &b.perf.throughput_tps,
                            sizeof(double)),
                0)
          << i;
      EXPECT_EQ(a.perf.latency_ms_by_type, b.perf.latency_ms_by_type) << i;
    }
  }
}

// Pipeline::Fit builds representations and fits each (workload, terminals)
// key's scaling models on the pool, one slot per key. For every strategy
// the fitted pipeline predicts the same bits, from the same reference, at
// 1, 2 and 8 threads.
TEST(DeterminismTest, PipelineFitBitIdenticalAcrossThreadCounts) {
  WorkbenchConfig config;
  config.workloads = {"TPC-C", "Twitter", "YCSB"};
  config.skus = {MakeCpuSku(2), MakeCpuSku(4), MakeCpuSku(8)};
  config.terminals = {4, 8};
  config.runs = 2;
  config.sim.duration_s = 10.0;
  const auto corpus = GenerateCorpus(config);
  ASSERT_TRUE(corpus.ok()) << corpus.status().ToString();
  const auto observed = RunOne("Twitter", MakeCpuSku(2), 8, /*run=*/5,
                               config.sim, config.base_seed);
  ASSERT_TRUE(observed.ok()) << observed.status().ToString();
  const int thread_counts[] = {1, 2, 8};
  for (const char* strategy : {"SVM", "GB", "LMM", "Regression", "MARS"}) {
    std::vector<Pipeline::Prediction> predictions;
    for (const int threads : thread_counts) {
      PipelineConfig pipeline_config;
      pipeline_config.selector = "fANOVA";
      pipeline_config.strategy = strategy;
      pipeline_config.num_threads = threads;
      Pipeline pipeline(pipeline_config);
      ASSERT_TRUE(pipeline.Fit(*corpus).ok()) << strategy << " " << threads;
      const auto prediction = pipeline.PredictThroughput(*observed, 8);
      ASSERT_TRUE(prediction.ok())
          << strategy << " " << threads << ": "
          << prediction.status().ToString();
      predictions.push_back(*prediction);
    }
    const Pipeline::Prediction& serial = predictions[0];
    for (size_t i = 1; i < predictions.size(); ++i) {
      const Pipeline::Prediction& parallel = predictions[i];
      EXPECT_EQ(std::memcmp(&serial.throughput_tps, &parallel.throughput_tps,
                            sizeof(double)),
                0)
          << strategy << " at " << thread_counts[i] << " threads";
      EXPECT_EQ(std::memcmp(&serial.similarity_distance,
                            &parallel.similarity_distance, sizeof(double)),
                0)
          << strategy << " at " << thread_counts[i] << " threads";
      EXPECT_EQ(serial.reference_workload, parallel.reference_workload)
          << strategy << " at " << thread_counts[i] << " threads";
    }
  }
}

TEST(DeterminismTest, PairwiseErrorPropagatesFromCell) {
  // A corpus whose representations trip the measure: unknown measure name
  // fails inside the parallel cell loop and must surface as the Status, not
  // a crash or partial matrix.
  const ExperimentCorpus corpus = SyntheticCorpus(2);
  const auto result = PairwiseDistances(corpus, Representation::kHistFp,
                                        "No-Such-Measure", {0, 1}, kThreads);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
}


TEST(ThreadsEnvParseTest, UnsetAndValidValues) {
  using parallel_internal::ParseThreadsEnv;
  EXPECT_EQ(ParseThreadsEnv(nullptr).threads, 0);
  EXPECT_FALSE(ParseThreadsEnv(nullptr).rejected);
  EXPECT_EQ(ParseThreadsEnv("1").threads, 1);
  EXPECT_EQ(ParseThreadsEnv("8").threads, 8);
  EXPECT_FALSE(ParseThreadsEnv("8").rejected);
}

TEST(ThreadsEnvParseTest, GarbageZeroNegativeRejected) {
  using parallel_internal::ParseThreadsEnv;
  for (const char* bad : {"", "abc", "4x", "4 ", "0", "-3", "2.5", "--", "+"}) {
    const auto parsed = ParseThreadsEnv(bad);
    EXPECT_TRUE(parsed.rejected) << "value: \"" << bad << "\"";
    EXPECT_EQ(parsed.threads, 0) << "value: \"" << bad << "\"";
  }
}

TEST(ThreadsEnvParseTest, StrtolLeniencyIsRejected) {
  // Regression: the parser used to inherit strtol's leniency and accept
  // leading whitespace, an explicit '+', and a "0x" prefix (parsed as 0 and
  // then rejected only by accident of the zero check). Anything that does
  // not start with a digit is now rejected outright, so a typo in
  // WPRED_THREADS warns instead of silently configuring something else.
  using parallel_internal::ParseThreadsEnv;
  for (const char* bad : {"  16", " 8", "\t4", "+4", "+0", "x10"}) {
    const auto parsed = ParseThreadsEnv(bad);
    EXPECT_TRUE(parsed.rejected) << "value: \"" << bad << "\"";
    EXPECT_EQ(parsed.threads, 0) << "value: \"" << bad << "\"";
  }
  // "0x10" starts with a digit but has a non-digit suffix: also rejected.
  EXPECT_TRUE(ParseThreadsEnv("0x10").rejected);
}

TEST(ChunkBoundsTest, PartitionsExactly) {
  using parallel_internal::ChunkBounds;
  for (const auto& [n, chunks] : std::vector<std::pair<size_t, size_t>>{
           {0, 1}, {1, 1}, {5, 1}, {10, 3}, {100, 4}, {7, 7}, {64, 9},
           {1000, 13}}) {
    size_t covered = 0;
    size_t prev_hi = 0;
    const size_t base = chunks == 0 ? 0 : n / chunks;
    for (size_t c = 0; c < chunks; ++c) {
      const auto range = ChunkBounds(n, chunks, c);
      EXPECT_EQ(range.lo, prev_hi) << "n=" << n << " chunks=" << chunks
                                   << " c=" << c;  // contiguous, ascending
      EXPECT_GE(range.hi, range.lo);
      const size_t width = range.hi - range.lo;
      EXPECT_TRUE(width == base || width == base + 1)
          << "n=" << n << " chunks=" << chunks << " c=" << c;
      covered += width;
      prev_hi = range.hi;
    }
    EXPECT_EQ(prev_hi, n) << "n=" << n << " chunks=" << chunks;
    EXPECT_EQ(covered, n);
  }
}

TEST(ChunkBoundsTest, NoOverflowNearSizeMax) {
  // Regression: the old `c * n / chunks` boundary arithmetic overflows
  // size_t once c * n exceeds SIZE_MAX, silently folding chunks onto the
  // wrong ranges. The quotient/remainder form must stay exact for any n.
  using parallel_internal::ChunkBounds;
  const size_t n = std::numeric_limits<size_t>::max() - 5;
  const size_t chunks = ThreadPool::kMaxWorkers;
  const size_t base = n / chunks;
  const size_t extra = n % chunks;
  size_t prev_hi = 0;
  for (size_t c = 0; c < chunks; ++c) {
    const auto range = ChunkBounds(n, chunks, c);
    EXPECT_EQ(range.lo, prev_hi) << "c=" << c;
    EXPECT_EQ(range.hi - range.lo, base + (c < extra ? 1 : 0)) << "c=" << c;
    prev_hi = range.hi;
  }
  EXPECT_EQ(prev_hi, n);
}

TEST(ThreadsEnvParseTest, OverflowAndHugeValuesClampToMaxWorkers) {
  using parallel_internal::ParseThreadsEnv;
  // Larger than kMaxWorkers but representable: intent is clear, clamp.
  EXPECT_EQ(ParseThreadsEnv("1000").threads, ThreadPool::kMaxWorkers);
  EXPECT_FALSE(ParseThreadsEnv("1000").rejected);
  // strtol overflow (ERANGE): same treatment.
  EXPECT_EQ(ParseThreadsEnv("99999999999999999999999").threads,
            ThreadPool::kMaxWorkers);
  EXPECT_FALSE(ParseThreadsEnv("99999999999999999999999").rejected);
}

}  // namespace
}  // namespace wpred
