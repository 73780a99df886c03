// Lower-bound-pruned similarity search (similarity/query.h): the pruned
// top-k must be bit-identical to an exhaustive scan — same indices, same
// distances — for every measure, window, thread count, and corpus shape,
// and the cascade's lower bounds must actually bound the DTW distance.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <thread>
#include <utility>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "obs/metrics.h"
#include "similarity/dtw.h"
#include "similarity/measures.h"
#include "similarity/query.h"
#include "telemetry/feature_catalog.h"

namespace wpred {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

Matrix RandomSeries(Rng& rng, size_t rows, size_t cols) {
  Matrix m(rows, cols);
  for (double& v : m.data()) v = rng.Uniform(0.0, 1.0);
  return m;
}

std::vector<Matrix> RandomCorpus(uint64_t seed, size_t n, size_t rows,
                                 size_t cols) {
  Rng rng(seed);
  std::vector<Matrix> corpus;
  corpus.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    corpus.push_back(RandomSeries(rng, rows, cols));
  }
  return corpus;
}

std::vector<std::string> AllMeasures() {
  std::vector<std::string> measures = NormMeasureNames();
  const std::vector<std::string> mts = MtsOnlyMeasureNames();
  measures.insert(measures.end(), mts.begin(), mts.end());
  return measures;
}

/// Reference ranking: exhaustive distance vector + stable argsort with the
/// (distance, index) tie-break the engine promises to match.
std::vector<Neighbor> ExhaustiveTopK(const SimilarityQueryEngine& engine,
                                     const Matrix& query, size_t k) {
  const Result<Vector> distances = engine.Distances(query);
  EXPECT_TRUE(distances.ok()) << distances.status().ToString();
  std::vector<Neighbor> ranked(distances->size());
  for (size_t i = 0; i < distances->size(); ++i) {
    ranked[i] = {i, (*distances)[i]};
  }
  std::stable_sort(ranked.begin(), ranked.end(),
                   [](const Neighbor& a, const Neighbor& b) {
                     return a.distance < b.distance;
                   });
  ranked.resize(std::min(k, ranked.size()));
  return ranked;
}

TEST(SimilarityQueryTest, PrunedMatchesExhaustiveAllMeasures) {
  const std::vector<Matrix> corpus = RandomCorpus(11, 12, 10, 3);
  Rng rng(12);
  const Matrix query = RandomSeries(rng, 10, 3);
  for (const std::string& measure : AllMeasures()) {
    for (const int window : {0, 3}) {
      for (const int threads : {1, 4}) {
        const Result<SimilarityQueryEngine> engine =
            SimilarityQueryEngine::Build(corpus, measure, window, threads);
        ASSERT_TRUE(engine.ok())
            << measure << ": " << engine.status().ToString();
        for (const size_t k : {1ul, 4ul, 12ul, 50ul}) {
          const Result<std::vector<Neighbor>> pruned =
              engine->RankNeighbors(query, k);
          ASSERT_TRUE(pruned.ok())
              << measure << ": " << pruned.status().ToString();
          const std::vector<Neighbor> expected =
              ExhaustiveTopK(*engine, query, k);
          EXPECT_EQ(*pruned, expected)
              << measure << " window=" << window << " threads=" << threads
              << " k=" << k;
        }
      }
    }
  }
}

TEST(SimilarityQueryTest, PrunedMatchesExhaustiveRandomCorpora) {
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    const std::vector<Matrix> corpus = RandomCorpus(seed, 15, 12, 2);
    Rng rng(seed + 100);
    const Matrix query = RandomSeries(rng, 12, 2);
    for (const char* measure : {"Dependent-DTW", "Independent-DTW"}) {
      const Result<SimilarityQueryEngine> engine =
          SimilarityQueryEngine::Build(corpus, measure, /*window=*/4);
      ASSERT_TRUE(engine.ok());
      const Result<std::vector<Neighbor>> pruned =
          engine->RankNeighbors(query, 3);
      ASSERT_TRUE(pruned.ok());
      EXPECT_EQ(*pruned, ExhaustiveTopK(*engine, query, 3))
          << measure << " seed=" << seed;
    }
  }
}

TEST(SimilarityQueryTest, DuplicatedEntriesBreakTiesByIndex) {
  // Three identical copies of each series: distances tie exactly, so the
  // ranking must come back in ascending index order within each tie group.
  std::vector<Matrix> corpus = RandomCorpus(21, 3, 8, 2);
  const std::vector<Matrix> base = corpus;
  corpus.insert(corpus.end(), base.begin(), base.end());
  corpus.insert(corpus.end(), base.begin(), base.end());
  for (const char* measure : {"Dependent-DTW", "L2,1-Norm"}) {
    const Result<SimilarityQueryEngine> engine =
        SimilarityQueryEngine::Build(corpus, measure);
    ASSERT_TRUE(engine.ok());
    const Result<std::vector<Neighbor>> ranked =
        engine->RankNeighbors(base[0], 9);
    ASSERT_TRUE(ranked.ok());
    ASSERT_EQ(ranked->size(), 9u);
    // The query equals corpus entries 0, 3, and 6 (distance 0) — they must
    // lead, in index order.
    EXPECT_EQ((*ranked)[0].index, 0u);
    EXPECT_EQ((*ranked)[1].index, 3u);
    EXPECT_EQ((*ranked)[2].index, 6u);
    for (size_t i = 0; i + 1 < ranked->size(); ++i) {
      const Neighbor& a = (*ranked)[i];
      const Neighbor& b = (*ranked)[i + 1];
      EXPECT_TRUE(a.distance < b.distance ||
                  (a.distance == b.distance && a.index < b.index))
          << measure << " position " << i;
    }
  }
}

TEST(SimilarityQueryTest, UnequalLengthsStayExact) {
  // Mixed series lengths force the cascade to skip LB_Keogh (only valid for
  // equal lengths) while staying exact through LB_Kim + early abandoning.
  Rng rng(31);
  std::vector<Matrix> corpus;
  for (size_t i = 0; i < 10; ++i) {
    corpus.push_back(RandomSeries(rng, 6 + 2 * (i % 4), 2));
  }
  const Matrix query = RandomSeries(rng, 9, 2);
  for (const char* measure : {"Dependent-DTW", "Independent-DTW"}) {
    const Result<SimilarityQueryEngine> engine =
        SimilarityQueryEngine::Build(corpus, measure);
    ASSERT_TRUE(engine.ok());
    const Result<std::vector<Neighbor>> pruned =
        engine->RankNeighbors(query, 4);
    ASSERT_TRUE(pruned.ok());
    EXPECT_EQ(*pruned, ExhaustiveTopK(*engine, query, 4)) << measure;
  }
}

TEST(EnvelopeTest, ContainsSeriesAndRespectsWindow) {
  Rng rng(41);
  const Matrix series = RandomSeries(rng, 20, 3);
  for (const int window : {0, 1, 5}) {
    const SeriesEnvelope env = query_internal::BuildEnvelope(series, window);
    ASSERT_EQ(env.lower.rows(), series.rows());
    ASSERT_EQ(env.upper.cols(), series.cols());
    const size_t band =
        window > 0 ? static_cast<size_t>(window) : series.rows();
    for (size_t i = 0; i < series.rows(); ++i) {
      const size_t lo = i > band ? i - band : 0;
      const size_t hi = std::min(series.rows() - 1, i + band);
      for (size_t f = 0; f < series.cols(); ++f) {
        double expect_min = kInf, expect_max = -kInf;
        for (size_t j = lo; j <= hi; ++j) {
          expect_min = std::min(expect_min, series(j, f));
          expect_max = std::max(expect_max, series(j, f));
        }
        EXPECT_DOUBLE_EQ(env.lower(i, f), expect_min) << i << "," << f;
        EXPECT_DOUBLE_EQ(env.upper(i, f), expect_max) << i << "," << f;
        EXPECT_LE(env.lower(i, f), series(i, f));
        EXPECT_GE(env.upper(i, f), series(i, f));
      }
    }
  }
}

TEST(LowerBoundTest, KimAndKeoghBoundTrueDistance) {
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed);
    const Matrix a = RandomSeries(rng, 10, 2);
    const Matrix b = RandomSeries(rng, 10, 2);
    for (const int window : {0, 2, 4}) {
      const SeriesEnvelope env_b = query_internal::BuildEnvelope(b, window);
      const double dep = DependentDtwDistance(a, b, window).value();
      EXPECT_LE(query_internal::LbKimDependent(a, b), dep + 1e-12)
          << "seed=" << seed << " window=" << window;
      EXPECT_LE(query_internal::LbKeoghDependent(a, env_b), dep + 1e-12)
          << "seed=" << seed << " window=" << window;
      const double ind = IndependentDtwDistance(a, b, window).value();
      EXPECT_LE(query_internal::LbKimIndependent(a, b), ind + 1e-12)
          << "seed=" << seed << " window=" << window;
      EXPECT_LE(query_internal::LbKeoghIndependent(a, env_b), ind + 1e-12)
          << "seed=" << seed << " window=" << window;
    }
  }
}

TEST(EarlyAbandonTest, InfiniteCutoffMatchesPlainKernel) {
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    Rng rng(seed);
    const Matrix a = RandomSeries(rng, 12, 3);
    const Matrix b = RandomSeries(rng, 9, 3);
    const Result<DtwEarlyAbandon> dep =
        DependentDtwDistanceEarlyAbandon(a, b, 0, kInf);
    ASSERT_TRUE(dep.ok());
    EXPECT_FALSE(dep->abandoned);
    EXPECT_EQ(dep->distance, DependentDtwDistance(a, b).value());
    const Result<DtwEarlyAbandon> ind =
        IndependentDtwDistanceEarlyAbandon(a, b, 0, kInf);
    ASSERT_TRUE(ind.ok());
    EXPECT_FALSE(ind->abandoned);
    EXPECT_EQ(ind->distance, IndependentDtwDistance(a, b).value());
  }
}

TEST(EarlyAbandonTest, TinyCutoffAbandons) {
  Rng rng(55);
  const Matrix a = RandomSeries(rng, 15, 2);
  Matrix b = a;
  for (double& v : b.data()) v += 2.0;  // uniformly far away
  const Result<DtwEarlyAbandon> dep =
      DependentDtwDistanceEarlyAbandon(a, b, 0, 1e-6);
  ASSERT_TRUE(dep.ok());
  EXPECT_TRUE(dep->abandoned);
  const Result<DtwEarlyAbandon> ind =
      IndependentDtwDistanceEarlyAbandon(a, b, 0, 1e-6);
  ASSERT_TRUE(ind.ok());
  EXPECT_TRUE(ind->abandoned);
  // The exact distance at the same inputs is far above the cutoff, so
  // abandoning was the right call.
  EXPECT_GT(DependentDtwDistance(a, b).value(), 1e-3);
}

TEST(SimilarityQueryTest, EnvelopeCacheCountsHits) {
  obs::SetMetricsEnabled(true);
  obs::MetricsRegistry::Global().ResetAll();
  const std::vector<Matrix> corpus = RandomCorpus(61, 6, 8, 2);
  const Result<SimilarityQueryEngine> engine =
      SimilarityQueryEngine::Build(corpus, "Dependent-DTW", /*window=*/2);
  ASSERT_TRUE(engine.ok());
  auto& registry = obs::MetricsRegistry::Global();
  EXPECT_EQ(registry.GetCounter("similarity.envelope.cache_misses").value(),
            1u);
  EXPECT_EQ(registry.GetCounter("similarity.envelope.builds").value(),
            corpus.size());
  Rng rng(62);
  const Matrix query = RandomSeries(rng, 8, 2);
  ASSERT_TRUE(engine->RankNeighbors(query, 2).ok());
  ASSERT_TRUE(engine->RankNeighbors(query, 3).ok());
  EXPECT_EQ(registry.GetCounter("similarity.envelope.cache_hits").value(), 2u);
  EXPECT_EQ(registry.GetCounter("similarity.envelope.builds").value(),
            corpus.size());  // queries never rebuild envelopes
  obs::SetMetricsEnabled(false);
  registry.ResetAll();
}

TEST(SimilarityQueryTest, PruningCountersFire) {
  obs::SetMetricsEnabled(true);
  obs::MetricsRegistry::Global().ResetAll();
  // Clustered corpus: a tight group near the query plus a far-away group
  // the lower bounds can discard.
  Rng rng(71);
  std::vector<Matrix> corpus;
  for (size_t i = 0; i < 10; ++i) {
    Matrix m = RandomSeries(rng, 12, 2);
    if (i >= 5) {
      for (double& v : m.data()) v += 10.0;
    }
    corpus.push_back(std::move(m));
  }
  const Matrix query = corpus[0];
  const Result<SimilarityQueryEngine> engine =
      SimilarityQueryEngine::Build(corpus, "Dependent-DTW", /*window=*/3);
  ASSERT_TRUE(engine.ok());
  const Result<std::vector<Neighbor>> ranked = engine->RankNeighbors(query, 3);
  ASSERT_TRUE(ranked.ok());
  EXPECT_EQ(*ranked, ExhaustiveTopK(*engine, query, 3));
  auto& registry = obs::MetricsRegistry::Global();
  EXPECT_GT(registry.GetCounter("similarity.lb.pruned").value(), 0u);
  // Only the pruned pass walks candidates; Distances() is a plain scan.
  EXPECT_EQ(registry.GetCounter("similarity.query.candidates").value(),
            corpus.size());
  obs::SetMetricsEnabled(false);
  registry.ResetAll();
}

TEST(SimilarityQueryTest, BuildRejectsBadCorpora) {
  EXPECT_FALSE(SimilarityQueryEngine::Build({}, "L2,1-Norm").ok());

  std::vector<Matrix> corpus = RandomCorpus(81, 3, 6, 2);
  const Result<SimilarityQueryEngine> unknown =
      SimilarityQueryEngine::Build(corpus, "nope");
  ASSERT_FALSE(unknown.ok());
  EXPECT_NE(unknown.status().message().find("nope"), std::string::npos);

  std::vector<Matrix> with_nan = corpus;
  with_nan[1](2, 1) = std::nan("");
  const Result<SimilarityQueryEngine> nan_build =
      SimilarityQueryEngine::Build(with_nan, "L2,1-Norm");
  ASSERT_FALSE(nan_build.ok());
  EXPECT_NE(nan_build.status().message().find("entry 1"), std::string::npos);

  std::vector<Matrix> mixed_arity = corpus;
  mixed_arity.push_back(RandomCorpus(82, 1, 6, 3)[0]);
  EXPECT_FALSE(SimilarityQueryEngine::Build(mixed_arity, "L2,1-Norm").ok());
}

TEST(SimilarityQueryTest, RankRejectsBadQueries) {
  const std::vector<Matrix> corpus = RandomCorpus(91, 4, 6, 2);
  const Result<SimilarityQueryEngine> engine =
      SimilarityQueryEngine::Build(corpus, "Dependent-DTW");
  ASSERT_TRUE(engine.ok());
  Rng rng(92);
  const Matrix query = RandomSeries(rng, 6, 2);
  EXPECT_FALSE(engine->RankNeighbors(query, 0).ok());
  EXPECT_FALSE(engine->RankNeighbors(Matrix{}, 2).ok());
  Matrix with_nan = query;
  with_nan(0, 0) = std::nan("");
  EXPECT_FALSE(engine->RankNeighbors(with_nan, 2).ok());
  const Matrix wrong_arity = RandomSeries(rng, 6, 3);
  EXPECT_FALSE(engine->RankNeighbors(wrong_arity, 2).ok());
}

TEST(SimilarityQueryTest, CorpusConvenienceOverloadRanksExperiments) {
  // Mirror of the corpus-level tests in similarity_test.cc: build a small
  // synthetic corpus and check that an experiment retrieves its own
  // workload's entries first.
  Rng rng(101);
  ExperimentCorpus corpus;
  for (int i = 0; i < 6; ++i) {
    Experiment e;
    e.workload = i < 3 ? "A" : "B";
    e.cpus = 4;
    e.terminals = 8;
    e.run_id = i;
    const double level = i < 3 ? 0.2 : 0.8;
    e.resource.values = Matrix(20, kNumResourceFeatures);
    for (size_t f = 0; f < kNumResourceFeatures; ++f) {
      for (size_t t = 0; t < 20; ++t) {
        e.resource.values(t, f) = level + rng.Uniform(0.0, 0.05);
      }
    }
    corpus.Add(std::move(e));
  }
  const Result<std::vector<Neighbor>> ranked =
      RankNeighbors(corpus, corpus[0], 3, Representation::kMts,
                    "Dependent-DTW", ResourceFeatureIndices());
  ASSERT_TRUE(ranked.ok()) << ranked.status().ToString();
  ASSERT_EQ(ranked->size(), 3u);
  EXPECT_EQ((*ranked)[0].index, 0u);  // itself
  for (const Neighbor& n : *ranked) {
    EXPECT_EQ(corpus[n.index].workload, "A") << "index " << n.index;
  }
}

// --- Sharded corpus: layout arithmetic, determinism, cache concurrency. ---

TEST(ShardedCorpusTest, ShardMapCoversCorpusExactly) {
  for (const auto& [n, width] : std::vector<std::pair<size_t, size_t>>{
           {0, 4}, {1, 4}, {4, 4}, {5, 4}, {12, 4}, {13, 5}, {100, 64}}) {
    ShardedCorpus corpus(RandomCorpus(/*seed=*/n + 7 * width + 1, n, 4, 2),
                         width);
    ASSERT_EQ(corpus.size(), n);
    EXPECT_EQ(corpus.shard_traces(), width);
    const size_t expected_shards = n == 0 ? 0 : (n + width - 1) / width;
    ASSERT_EQ(corpus.num_shards(), expected_shards);
    size_t covered = 0;
    for (size_t s = 0; s < corpus.num_shards(); ++s) {
      const CorpusShard shard = corpus.shard(s);
      EXPECT_EQ(shard.begin, covered) << "shard " << s;  // contiguous
      EXPECT_GT(shard.size(), 0u);
      EXPECT_LE(shard.size(), width);
      for (size_t i = shard.begin; i < shard.end; ++i) {
        EXPECT_EQ(corpus.shard_of(i), s) << "index " << i;
      }
      covered = shard.end;
    }
    EXPECT_EQ(covered, n);
  }
}

TEST(ShardedCorpusTest, DefaultAndClampedWidths) {
  ShardedCorpus by_default(RandomCorpus(3, 5, 4, 2));
  EXPECT_EQ(by_default.shard_traces(), ShardedCorpus::kDefaultShardTraces);
  ShardedCorpus zero(RandomCorpus(3, 5, 4, 2), 0);
  EXPECT_EQ(zero.shard_traces(), ShardedCorpus::kDefaultShardTraces);
  // Global indices are untouched by sharding.
  const std::vector<Matrix> traces = RandomCorpus(4, 6, 4, 2);
  ShardedCorpus sharded(traces, 2);
  for (size_t i = 0; i < traces.size(); ++i) {
    EXPECT_EQ(sharded[i].data(), traces[i].data()) << "index " << i;
  }
}

TEST(SimilarityQueryTest, ShardWidthNeverChangesResults) {
  // The sharding contract: shard_traces decides layout and scheduling
  // granularity only. Rankings and distances must be bit-identical across
  // widths spanning one-trace-per-shard to whole-corpus-in-one-shard.
  const std::vector<Matrix> corpus = RandomCorpus(111, 13, 10, 2);
  Rng rng(112);
  const Matrix query = RandomSeries(rng, 10, 2);
  for (const char* measure : {"Dependent-DTW", "L2,1-Norm"}) {
    const Result<SimilarityQueryEngine> baseline = SimilarityQueryEngine::Build(
        corpus, measure, /*window=*/3, /*num_threads=*/1, /*shard_traces=*/1);
    ASSERT_TRUE(baseline.ok());
    const Result<std::vector<Neighbor>> expected_ranked =
        baseline->RankNeighbors(query, 5);
    const Result<Vector> expected_distances = baseline->Distances(query);
    ASSERT_TRUE(expected_ranked.ok());
    ASSERT_TRUE(expected_distances.ok());
    for (const size_t width : {2ul, 5ul, 13ul, 64ul}) {
      for (const int threads : {1, 4}) {
        const Result<SimilarityQueryEngine> engine =
            SimilarityQueryEngine::Build(corpus, measure, /*window=*/3,
                                         threads, width);
        ASSERT_TRUE(engine.ok());
        EXPECT_EQ(engine->sharded_corpus().shard_traces(), width);
        const Result<std::vector<Neighbor>> ranked =
            engine->RankNeighbors(query, 5);
        ASSERT_TRUE(ranked.ok());
        EXPECT_EQ(*ranked, *expected_ranked)
            << measure << " width=" << width << " threads=" << threads;
        const Result<Vector> distances = engine->Distances(query, threads);
        ASSERT_TRUE(distances.ok());
        for (size_t i = 0; i < expected_distances->size(); ++i) {
          EXPECT_EQ((*distances)[i], (*expected_distances)[i])
              << measure << " width=" << width << " index=" << i;
        }
      }
    }
  }
}

TEST(SimilarityQueryTest, ShardedTopKBitIdenticalAcrossSchedules) {
  const std::vector<Matrix> corpus = RandomCorpus(121, 20, 12, 2);
  Rng rng(122);
  const Matrix query = RandomSeries(rng, 12, 2);
  const Result<SimilarityQueryEngine> engine = SimilarityQueryEngine::Build(
      corpus, "Independent-DTW", /*window=*/4, /*num_threads=*/1,
      /*shard_traces=*/3);
  ASSERT_TRUE(engine.ok());
  const Result<std::vector<Neighbor>> baseline = engine->RankNeighbors(query, 6);
  ASSERT_TRUE(baseline.ok());
  for (const int threads : {1, 2, 8}) {
    const Result<SimilarityQueryEngine> rebuilt =
        SimilarityQueryEngine::Build(corpus, "Independent-DTW", /*window=*/4,
                                     threads, /*shard_traces=*/3);
    ASSERT_TRUE(rebuilt.ok());
    const Result<std::vector<Neighbor>> ranked =
        rebuilt->RankNeighbors(query, 6);
    ASSERT_TRUE(ranked.ok());
    EXPECT_EQ(*ranked, *baseline) << "threads=" << threads;
    const Result<Vector> distances = rebuilt->Distances(query, threads);
    ASSERT_TRUE(distances.ok());
    EXPECT_EQ(*distances, *engine->Distances(query)) << "threads=" << threads;
  }
}

TEST(EnvelopeCacheTest, ConcurrentLookupAndBuildIsRaceFree) {
  // TSan regression for the cache race: the old implementation mutated a
  // plain std::map under GetOrBuild while concurrent readers ran Lookup on
  // the same structure. Readers now traverse an immutable node list off an
  // atomic head, so lookups may run against in-flight builds of *other*
  // windows freely. Hammer both paths from several threads.
  const ShardedCorpus corpus(RandomCorpus(131, 24, 8, 2), /*shard_traces=*/5);
  EnvelopeCache cache;
  ASSERT_TRUE(cache.GetOrBuild(corpus, /*window=*/1, /*num_threads=*/1).ok());

  constexpr int kReaders = 3;
  constexpr int kWindows = 6;
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> hits{0};
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&cache, &stop, &hits]() {
      while (!stop.load(std::memory_order_acquire)) {
        for (int w = 1; w <= kWindows; ++w) {
          if (cache.Lookup(w) != nullptr) {
            hits.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
    });
  }
  std::vector<std::thread> builders;
  builders.reserve(2);
  for (int t = 0; t < 2; ++t) {
    builders.emplace_back([&cache, &corpus, t]() {
      // Overlapping window sets: both builders race every window, so the
      // double-checked build path is exercised, and each window must still
      // be built exactly once.
      for (int w = 1 + (t % 2); w <= kWindows; ++w) {
        const auto built = cache.GetOrBuild(corpus, w, /*num_threads=*/2);
        ASSERT_TRUE(built.ok());
        ASSERT_NE(*built, nullptr);
      }
    });
  }
  for (std::thread& b : builders) b.join();
  stop.store(true, std::memory_order_release);
  for (std::thread& r : readers) r.join();
  EXPECT_GT(hits.load(), 0u);

  // Every window is now resident and identical between Lookup and a repeat
  // GetOrBuild (pointer-stable: the same published EnvelopeSet).
  for (int w = 1; w <= kWindows; ++w) {
    const EnvelopeSet* looked_up = cache.Lookup(w);
    ASSERT_NE(looked_up, nullptr) << "window " << w;
    const auto again = cache.GetOrBuild(corpus, w, /*num_threads=*/1);
    ASSERT_TRUE(again.ok());
    EXPECT_EQ(*again, looked_up) << "window " << w;
  }
}

TEST(EnvelopeCacheTest, EnvelopeSetMatchesPerTraceBuild) {
  // The per-shard block layout must address exactly the same envelope a
  // flat per-trace build would produce for each global index.
  const ShardedCorpus corpus(RandomCorpus(141, 11, 6, 2), /*shard_traces=*/4);
  EnvelopeCache cache;
  const auto built = cache.GetOrBuild(corpus, /*window=*/2, /*num_threads=*/4);
  ASSERT_TRUE(built.ok());
  const EnvelopeSet& set = **built;
  ASSERT_EQ(set.num_blocks(), corpus.num_shards());
  for (size_t i = 0; i < corpus.size(); ++i) {
    const SeriesEnvelope expected =
        query_internal::BuildEnvelope(corpus[i], /*window=*/2);
    // The flat blocks are column-major (column f at offset f·rows), matching
    // ShardedCorpus::col_data.
    const double* lower = set.lower(i);
    const double* upper = set.upper(i);
    const size_t rows = corpus[i].rows();
    for (size_t f = 0; f < corpus[i].cols(); ++f) {
      for (size_t r = 0; r < rows; ++r) {
        EXPECT_EQ(lower[f * rows + r], expected.lower(r, f))
            << "index " << i << " row " << r << " col " << f;
        EXPECT_EQ(upper[f * rows + r], expected.upper(r, f))
            << "index " << i << " row " << r << " col " << f;
      }
    }
  }
}

}  // namespace
}  // namespace wpred
