// Lower-bound-pruned similarity search (similarity/query.h): the pruned
// top-k must be bit-identical to an exhaustive scan — same indices, same
// distances — for every measure, window, thread count, and corpus shape,
// also with several threads querying one engine at once, and the cascade's
// lower bounds must actually bound the DTW distance.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <thread>
#include <tuple>
#include <utility>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/simd.h"
#include "obs/metrics.h"
#include "reference_kernels.h"
#include "similarity/dtw.h"
#include "similarity/measures.h"
#include "similarity/query.h"
#include "similarity/representation.h"
#include "similarity/sketch.h"
#include "telemetry/experiment.h"
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
  // The engine's envelope kernel (BuildEnvelopeColumns, column-major)
  // against a brute-force windowed min/max.
  Rng rng(41);
  const Matrix series = RandomSeries(rng, 20, 3);
  const size_t rows = series.rows();
  for (const int window : {0, 1, 5}) {
    std::vector<double> lower(series.size());
    std::vector<double> upper(series.size());
    query_internal::BuildEnvelopeColumns(series, window, lower.data(),
                                         upper.data());
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
        EXPECT_EQ(lower[f * rows + i], expect_min) << i << "," << f;
        EXPECT_EQ(upper[f * rows + i], expect_max) << i << "," << f;
        EXPECT_LE(lower[f * rows + i], series(i, f));
        EXPECT_GE(upper[f * rows + i], series(i, f));
      }
    }
  }
}

TEST(LowerBoundTest, KimAndKeoghBoundTrueDistance) {
  // The bounds as the engine computes them — LB_Kim as the sketch bound's
  // kim component, LB_Keogh as simd::EnvelopeGapSq against a
  // BuildEnvelopeColumns envelope — must equal the row-major reference bounds to within
  // reassociation, and never exceed the true DTW distance.
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed);
    const Matrix a = RandomSeries(rng, 10, 2);
    const Matrix b = RandomSeries(rng, 10, 2);
    const std::vector<Matrix> corpus{b};
    TraceSketchSet sketches;
    ASSERT_TRUE(sketches.Build(corpus, /*bins=*/8, /*num_threads=*/1).ok());
    const std::vector<double> a_sketch = sketches.SketchSeries(a);
    const std::vector<double> a_cols = a.ColumnMajor();
    const size_t rows = a.rows();
    for (const int window : {0, 2, 4}) {
      std::vector<double> lower(b.size());
      std::vector<double> upper(b.size());
      query_internal::BuildEnvelopeColumns(b, window, lower.data(),
                                           upper.data());
      const reference::SeriesEnvelope env_b =
          reference::BuildEnvelope(b, window);
      const double kim_dep =
          DependentSketchBound(a_sketch.data(), sketches.At(0),
                               sketches.layout(), window)
              .kim;
      const double kim_ind =
          IndependentSketchBound(a_sketch.data(), sketches.At(0),
                                 sketches.layout(), window)
              .kim;
      const double keogh_dep = std::sqrt(simd::EnvelopeGapSq(
          a_cols.data(), lower.data(), upper.data(), a.size()));
      double keogh_ind = 0.0;
      for (size_t f = 0; f < a.cols(); ++f) {
        keogh_ind += std::sqrt(simd::EnvelopeGapSq(
            a_cols.data() + f * rows, lower.data() + f * rows,
            upper.data() + f * rows, rows));
      }
      keogh_ind /= static_cast<double>(a.cols());

      EXPECT_NEAR(kim_dep, reference::LbKimDependent(a, b), 1e-12);
      EXPECT_NEAR(kim_ind, reference::LbKimIndependent(a, b), 1e-12);
      EXPECT_NEAR(keogh_dep, reference::LbKeoghDependent(a, env_b), 1e-12);
      EXPECT_NEAR(keogh_ind, reference::LbKeoghIndependent(a, env_b), 1e-12);
      const double dep = DependentDtwDistance(a, b, window).value();
      const double ind = IndependentDtwDistance(a, b, window).value();
      EXPECT_LE(kim_dep, dep + 1e-12)
          << "seed=" << seed << " window=" << window;
      EXPECT_LE(keogh_dep, dep + 1e-12)
          << "seed=" << seed << " window=" << window;
      EXPECT_LE(kim_ind, ind + 1e-12)
          << "seed=" << seed << " window=" << window;
      EXPECT_LE(keogh_ind, ind + 1e-12)
          << "seed=" << seed << " window=" << window;
    }
  }
}

TEST(EarlyAbandonTest, InfiniteCutoffMatchesPlainKernel) {
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    Rng rng(seed);
    const Matrix a = RandomSeries(rng, 12, 3);
    const Matrix b = RandomSeries(rng, 9, 3);
    const std::vector<double> ac = a.ColumnMajor();
    const std::vector<double> bc = b.ColumnMajor();
    const Result<DtwEarlyAbandon> dep =
        DependentDtwColsEarlyAbandon(ac.data(), 12, bc.data(), 9, 3, 0, kInf);
    ASSERT_TRUE(dep.ok());
    EXPECT_FALSE(dep->abandoned);
    EXPECT_EQ(dep->distance, DependentDtwDistance(a, b).value());
    const Result<DtwEarlyAbandon> ind = IndependentDtwColsEarlyAbandon(
        ac.data(), 12, bc.data(), 9, 3, 0, kInf);
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
  const std::vector<double> ac = a.ColumnMajor();
  const std::vector<double> bc = b.ColumnMajor();
  const Result<DtwEarlyAbandon> dep =
      DependentDtwColsEarlyAbandon(ac.data(), 15, bc.data(), 15, 2, 0, 1e-6);
  ASSERT_TRUE(dep.ok());
  EXPECT_TRUE(dep->abandoned);
  const Result<DtwEarlyAbandon> ind = IndependentDtwColsEarlyAbandon(
      ac.data(), 15, bc.data(), 15, 2, 0, 1e-6);
  ASSERT_TRUE(ind.ok());
  EXPECT_TRUE(ind->abandoned);
  // The exact distance at the same inputs is far above the cutoff, so
  // abandoning was the right call.
  EXPECT_GT(DependentDtwDistance(a, b).value(), 1e-3);
}

TEST(SimilarityQueryTest, EnvelopesBuiltOnceAtBuild) {
  obs::SetMetricsEnabled(true);
  obs::MetricsRegistry::Global().ResetAll();
  const std::vector<Matrix> corpus = RandomCorpus(61, 6, 8, 2);
  const Result<SimilarityQueryEngine> engine =
      SimilarityQueryEngine::Build(corpus, "Dependent-DTW", /*window=*/2);
  ASSERT_TRUE(engine.ok());
  auto& registry = obs::MetricsRegistry::Global();
  EXPECT_EQ(registry.GetCounter("similarity.envelope.builds").value(),
            corpus.size());
  Rng rng(62);
  const Matrix query = RandomSeries(rng, 8, 2);
  ASSERT_TRUE(engine->RankNeighbors(query, 2).ok());
  ASSERT_TRUE(engine->RankNeighbors(query, 3).ok());
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
  // synthetic corpus, represent it the way the pipeline does (shared
  // normalisation, MTS representation), and check that an experiment
  // retrieves its own workload's entries first.
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
  const NormalizationContext ctx = ComputeNormalization(corpus);
  std::vector<Matrix> reps;
  for (size_t i = 0; i < corpus.size(); ++i) {
    Result<Matrix> rep = BuildRepresentation(
        Representation::kMts, corpus[i], ResourceFeatureIndices(), ctx);
    ASSERT_TRUE(rep.ok()) << rep.status().ToString();
    reps.push_back(std::move(*rep));
  }
  const Matrix query = reps[0];
  const Result<SimilarityQueryEngine> engine =
      SimilarityQueryEngine::Build(std::move(reps), "Dependent-DTW");
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  const Result<std::vector<Neighbor>> ranked = engine->RankNeighbors(query, 3);
  ASSERT_TRUE(ranked.ok()) << ranked.status().ToString();
  ASSERT_EQ(ranked->size(), 3u);
  EXPECT_EQ((*ranked)[0].index, 0u);  // itself
  for (const Neighbor& n : *ranked) {
    EXPECT_EQ(corpus[n.index].workload, "A") << "index " << n.index;
  }
}

// --- Sharded corpus: task arithmetic, determinism, concurrent reads. ---
//
// The reference corpus is sharded only in how Distances schedules it: as
// ⌈n / shard_traces⌉ contiguous index ranges, one parallel task each. The
// traces themselves stay in one flat layout at their global indices.

TEST(ShardedCorpusTest, ShardMapCoversCorpusExactly) {
  // num_shards() is ⌈n / width⌉, and the Distances tasks it counts cover
  // every trace exactly once: each distance equals the one computed by a
  // single whole-corpus task.
  Rng rng(41);
  const Matrix query = RandomSeries(rng, 4, 2);
  for (const auto& [n, width] : std::vector<std::pair<size_t, size_t>>{
           {1, 4}, {4, 4}, {5, 4}, {12, 4}, {13, 5}, {100, 64}, {3, 1}}) {
    const std::vector<Matrix> traces =
        RandomCorpus(/*seed=*/n + 7 * width + 1, n, 4, 2);
    for (const char* measure : {"L2,1-Norm", "Dependent-DTW"}) {
      const Result<SimilarityQueryEngine> engine = SimilarityQueryEngine::Build(
          traces, measure, /*window=*/0, /*num_threads=*/1, width);
      ASSERT_TRUE(engine.ok()) << engine.status().ToString();
      EXPECT_EQ(engine->num_shards(), (n + width - 1) / width)
          << measure << " n=" << n << " width=" << width;
      const Result<SimilarityQueryEngine> whole = SimilarityQueryEngine::Build(
          traces, measure, /*window=*/0, /*num_threads=*/1,
          /*shard_traces=*/n);
      ASSERT_TRUE(whole.ok()) << whole.status().ToString();
      ASSERT_EQ(whole->num_shards(), 1u);
      const Result<Vector> got = engine->Distances(query, /*num_threads=*/2);
      const Result<Vector> want = whole->Distances(query, /*num_threads=*/1);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      ASSERT_TRUE(want.ok()) << want.status().ToString();
      ASSERT_EQ(got->size(), n);
      for (size_t i = 0; i < n; ++i) {
        EXPECT_EQ((*got)[i], (*want)[i])
            << measure << " n=" << n << " width=" << width << " index " << i;
      }
    }
  }
}

TEST(ShardedCorpusTest, DefaultAndClampedWidths) {
  // Width 0, or no width at all, means kDefaultShardTraces (64); a width at
  // or above the corpus size is one task. The engine's corpus keeps every
  // trace at its global index, whatever the width.
  EXPECT_EQ(SimilarityQueryEngine::kDefaultShardTraces, 64u);
  using Case = std::tuple<size_t, size_t, size_t>;  // n, width, shards
  for (const auto& [n, width, shards] : std::vector<Case>{
           {5, 64, 1}, {5, 1000, 1}, {64, 0, 1}, {65, 0, 2}, {129, 0, 3}}) {
    const std::vector<Matrix> traces =
        RandomCorpus(/*seed=*/n + 7 * width + 1, n, 4, 2);
    for (const char* measure : {"L2,1-Norm", "Dependent-DTW"}) {
      const Result<SimilarityQueryEngine> engine = SimilarityQueryEngine::Build(
          traces, measure, /*window=*/0, /*num_threads=*/1, width);
      ASSERT_TRUE(engine.ok()) << engine.status().ToString();
      EXPECT_EQ(engine->num_shards(), shards)
          << measure << " n=" << n << " width=" << width;
      ASSERT_EQ(engine->corpus().size(), n);
      for (size_t i = 0; i < n; ++i) {
        EXPECT_EQ(engine->corpus()[i], traces[i]) << measure << " index " << i;
      }
    }
  }
  const std::vector<Matrix> traces = RandomCorpus(3, 65, 4, 2);
  const Result<SimilarityQueryEngine> by_default =
      SimilarityQueryEngine::Build(traces, "L2,1-Norm");
  ASSERT_TRUE(by_default.ok()) << by_default.status().ToString();
  EXPECT_EQ(by_default->num_shards(), 2u);
}

TEST(SimilarityQueryTest, ShardWidthNeverChangesResults) {
  // The width contract: shard_traces decides the Distances task size only.
  // Rankings and distances must be bit-identical across widths spanning
  // one trace per task to the whole corpus in one task.
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
        EXPECT_EQ(engine->num_shards(), (corpus.size() + width - 1) / width);
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

TEST(SimilarityQueryTest, ConcurrentReadsMatchExhaustive) {
  // An engine is immutable after Build, so concurrent const queries need no
  // locks. Four threads share one engine and loop RankNeighbors (k < n, the
  // serial cascade over the engine's envelopes and sketches) and Distances
  // (the parallel shard scan); every result must equal the row-order
  // oracle's exhaustive top-k or the single-thread distances.
  constexpr int kReaders = 4;
  constexpr int kRounds = 8;
  constexpr size_t kK = 4;
  const std::vector<Matrix> corpus = RandomCorpus(131, 24, 8, 2);
  Rng rng(132);
  std::vector<Matrix> queries;
  for (int q = 0; q < kReaders; ++q) queries.push_back(RandomSeries(rng, 8, 2));
  for (const char* measure : {"Dependent-DTW", "Independent-DTW"}) {
    for (const int window : {0, 3}) {
      const Result<SimilarityQueryEngine> built = SimilarityQueryEngine::Build(
          corpus, measure, window, /*num_threads=*/2, /*shard_traces=*/5);
      ASSERT_TRUE(built.ok()) << built.status().ToString();
      const SimilarityQueryEngine& engine = *built;
      std::vector<std::vector<Neighbor>> expected_top;
      std::vector<Vector> expected_distances;
      for (const Matrix& query : queries) {
        const Result<std::vector<Neighbor>> top =
            reference::ExhaustiveTopK(corpus, query, measure, window, kK);
        ASSERT_TRUE(top.ok()) << top.status().ToString();
        expected_top.push_back(*top);
        const Result<Vector> distances =
            engine.Distances(query, /*num_threads=*/1);
        ASSERT_TRUE(distances.ok()) << distances.status().ToString();
        expected_distances.push_back(*distances);
      }
      std::atomic<int> mismatches{0};
      std::vector<std::thread> readers;
      readers.reserve(kReaders);
      for (int t = 0; t < kReaders; ++t) {
        readers.emplace_back([&, t]() {
          for (int round = 0; round < kRounds; ++round) {
            // Each reader walks every query, starting at its own, so the
            // threads overlap on the same candidates in different orders.
            const size_t q = static_cast<size_t>(t + round) % queries.size();
            const Result<std::vector<Neighbor>> ranked =
                engine.RankNeighbors(queries[q], kK);
            if (!ranked.ok() || *ranked != expected_top[q]) ++mismatches;
            const Result<Vector> distances =
                engine.Distances(queries[q], /*num_threads=*/2);
            if (!distances.ok() || *distances != expected_distances[q]) {
              ++mismatches;
            }
          }
        });
      }
      for (std::thread& reader : readers) reader.join();
      EXPECT_EQ(mismatches.load(), 0) << measure << " window=" << window;
    }
  }
}

TEST(EnvelopeTest, EngineArraysMatchPerTraceBuild) {
  // The engine's flat envelope arrays must address exactly the same
  // envelope a per-trace build would produce for each global index.
  const std::vector<Matrix> corpus = RandomCorpus(141, 11, 6, 2);
  const Result<SimilarityQueryEngine> engine = SimilarityQueryEngine::Build(
      corpus, "Dependent-DTW", /*window=*/2, /*num_threads=*/4);
  ASSERT_TRUE(engine.ok());
  for (size_t i = 0; i < corpus.size(); ++i) {
    const reference::SeriesEnvelope expected =
        reference::BuildEnvelope(corpus[i], /*window=*/2);
    // The flat arrays are column-major (column f at offset f·rows), matching
    // SimilarityQueryEngine::col_data.
    const double* lower = engine->envelope_lower(i);
    const double* upper = engine->envelope_upper(i);
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
