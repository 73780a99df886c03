// Tier-0 similarity sketches (similarity/sketch.h): the combined bound must
// be admissible against the true DTW distance for every measure, window,
// and shape; sketch-driven pruning must leave the engine's top-k
// bit-identical to an exhaustive scan (including exact ties crossing the
// prune boundary); an appended engine must equal a rebuild in every index
// array; and empty appends must be strict no-ops.

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "obs/metrics.h"
#include "reference_kernels.h"
#include "similarity/dtw.h"
#include "similarity/query.h"
#include "similarity/sketch.h"

namespace wpred {
namespace {

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

TEST(SimilaritySketchTest, BoundIsAdmissibleProperty) {
  // Property sweep: for random corpora, queries, windows, and unequal
  // lengths, the combined sketch bound never exceeds the true DTW distance
  // (within one part in 10^9 for floating-point accumulation), and the kim
  // component never exceeds the combined bound it feeds.
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    Rng rng(seed * 1000);
    const size_t rows = 4 + seed % 9;
    const size_t cols = 1 + seed % 3;
    const std::vector<Matrix> traces = RandomCorpus(seed, 10, rows, cols);
    const std::vector<Matrix>& corpus = traces;
    TraceSketchSet sketches;
    ASSERT_TRUE(sketches.Build(corpus, /*bins=*/8, /*num_threads=*/2).ok());
    // Unequal query lengths exercise the band widening inside the bound.
    for (const size_t qrows : {rows, rows > 2 ? rows - 2 : rows, rows + 3}) {
      const Matrix query = RandomSeries(rng, qrows, cols);
      const std::vector<double> qsketch = sketches.SketchSeries(query);
      for (const int window : {0, 2}) {
        for (size_t i = 0; i < corpus.size(); ++i) {
          const SketchBound dep = DependentSketchBound(
              qsketch.data(), sketches.At(i), sketches.layout(), window);
          const SketchBound ind = IndependentSketchBound(
              qsketch.data(), sketches.At(i), sketches.layout(), window);
          const Result<double> dep_dist =
              DependentDtwDistance(query, corpus[i], window);
          const Result<double> ind_dist =
              IndependentDtwDistance(query, corpus[i], window);
          ASSERT_TRUE(dep_dist.ok() && ind_dist.ok());
          EXPECT_LE(dep.combined, *dep_dist * (1.0 + 1e-9) + 1e-12)
              << "seed=" << seed << " i=" << i << " qrows=" << qrows
              << " window=" << window;
          EXPECT_LE(ind.combined, *ind_dist * (1.0 + 1e-9) + 1e-12)
              << "seed=" << seed << " i=" << i << " qrows=" << qrows
              << " window=" << window;
          // combined is a max over components including kim.
          EXPECT_LE(dep.kim, dep.combined);
          EXPECT_LE(ind.kim, ind.combined);
        }
      }
    }
  }
}

TEST(SimilaritySketchTest, LbKimAdmissibleOnDegenerateLengths) {
  // Length-1 and length-2 series: the first and last cells of the warping
  // path coincide (1x1) or touch every cell (2x2) — the regime where an
  // endpoint double-count would push LB_Kim above the true distance. Pin
  // the sketch bound's kim component to the reference LB_Kim and to
  // LB <= distance on every combination, both measures, and the combined
  // sketch bound with them.
  Rng rng(77);
  std::vector<Matrix> shapes;
  for (const size_t r : {1ul, 2ul}) {
    shapes.push_back(RandomSeries(rng, r, 3));
    shapes.push_back(RandomSeries(rng, r, 3));
  }
  const std::vector<Matrix>& corpus = shapes;
  TraceSketchSet sketches;
  ASSERT_TRUE(sketches.Build(corpus, /*bins=*/4, /*num_threads=*/1).ok());
  for (const Matrix& query : shapes) {
    const std::vector<double> qsketch = sketches.SketchSeries(query);
    for (size_t i = 0; i < corpus.size(); ++i) {
      const Matrix& candidate = corpus[i];
      const Result<double> dep = DependentDtwDistance(query, candidate);
      const Result<double> ind = IndependentDtwDistance(query, candidate);
      ASSERT_TRUE(dep.ok() && ind.ok());
      const SketchBound dep_b = DependentSketchBound(
          qsketch.data(), sketches.At(i), sketches.layout(), /*window=*/0);
      const SketchBound ind_b = IndependentSketchBound(
          qsketch.data(), sketches.At(i), sketches.layout(), /*window=*/0);
      EXPECT_NEAR(dep_b.kim, reference::LbKimDependent(query, candidate),
                  1e-12)
          << "q.rows=" << query.rows() << " c.rows=" << candidate.rows();
      EXPECT_NEAR(ind_b.kim, reference::LbKimIndependent(query, candidate),
                  1e-12)
          << "q.rows=" << query.rows() << " c.rows=" << candidate.rows();
      EXPECT_LE(dep_b.kim, *dep * (1.0 + 1e-12))
          << "q.rows=" << query.rows() << " c.rows=" << candidate.rows();
      EXPECT_LE(ind_b.kim, *ind * (1.0 + 1e-12))
          << "q.rows=" << query.rows() << " c.rows=" << candidate.rows();
      EXPECT_LE(dep_b.combined, *dep * (1.0 + 1e-9) + 1e-12);
      EXPECT_LE(ind_b.combined, *ind * (1.0 + 1e-9) + 1e-12);
    }
  }
}

TEST(SimilaritySketchTest, TopKBitIdenticalWithSketchPruningAndTies) {
  obs::SetMetricsEnabled(true);
  obs::MetricsRegistry::Global().ResetAll();
  // Clustered corpus with EXACT duplicates straddling the k boundary: a
  // near cluster (including duplicated copies of the query's twin, so the
  // k-th and (k+1)-th distances tie exactly) plus a far cluster the sketch
  // tier must discard. The ranked result must equal the exhaustive argsort
  // bitwise — ties resolved by index — while sketch.pruned fires.
  Rng rng(91);
  std::vector<Matrix> corpus;
  for (size_t i = 0; i < 6; ++i) {
    corpus.push_back(RandomSeries(rng, 10, 2));
  }
  // Duplicates of corpus[2]: identical sketches AND identical distances, so
  // a k cutting through them exercises tie handling at the prune boundary.
  corpus.push_back(corpus[2]);
  corpus.push_back(corpus[2]);
  // Far traces share the query's FIRST and LAST rows, so LB_Kim (endpoints
  // only) stays tiny — only the sketch's histogram/PAA terms see the +25
  // interior and can discard them, forcing sketch-attributed prunes.
  const Matrix query = corpus[2];
  for (size_t i = 0; i < 24; ++i) {
    Matrix far = RandomSeries(rng, 10, 2);
    for (double& v : far.data()) v += 25.0;
    for (size_t f = 0; f < far.cols(); ++f) {
      far(0, f) = query(0, f);
      far(far.rows() - 1, f) = query(query.rows() - 1, f);
    }
    corpus.push_back(std::move(far));
  }
  for (const char* measure : {"Dependent-DTW", "Independent-DTW"}) {
    for (const int window : {0, 3}) {
      const auto engine = SimilarityQueryEngine::Build(
          corpus, measure, window, /*num_threads=*/2, /*shard_traces=*/4);
      ASSERT_TRUE(engine.ok()) << engine.status().ToString();
      EXPECT_EQ(engine->sketch_bins(), TraceSketchSet::kDefaultBins);
      // k = 2 cuts through the three identical copies (indices 2, 6, 7):
      // the result must keep 2 and 6 and drop 7 purely on the index
      // tie-break, even though all three distances are equal.
      for (const size_t k : {2ul, 3ul, 5ul}) {
        const auto ranked = engine->RankNeighbors(query, k);
        ASSERT_TRUE(ranked.ok()) << ranked.status().ToString();
        EXPECT_EQ(*ranked, ExhaustiveTopK(*engine, query, k))
            << measure << " window=" << window << " k=" << k;
      }
    }
  }
  auto& registry = obs::MetricsRegistry::Global();
  EXPECT_GT(registry.GetCounter("similarity.sketch.pruned").value(), 0u);
  EXPECT_GT(registry.GetCounter("similarity.sketch.built").value(), 0u);
  obs::SetMetricsEnabled(false);
  registry.ResetAll();
}

TEST(SimilaritySketchTest, AppendedEngineMatchesRebuild) {
  // An appended engine must return bit-identical results to a rebuild.
  // Appended values deliberately leave the original frame (x5 + offset), so
  // the sketch frame has to grow with the corpus.
  const std::vector<Matrix> initial = RandomCorpus(101, 14, 9, 2);
  std::vector<Matrix> appended = RandomCorpus(102, 9, 9, 2);
  for (Matrix& m : appended) {
    for (double& v : m.data()) v = v * 5.0 - 2.0;  // out-of-frame values
  }
  std::vector<Matrix> full = initial;
  full.insert(full.end(), appended.begin(), appended.end());
  Rng rng(103);
  const Matrix query = RandomSeries(rng, 9, 2);
  for (const char* measure : {"Dependent-DTW", "Independent-DTW"}) {
    for (const int window : {0, 2}) {
      auto grown = SimilarityQueryEngine::Build(initial, measure, window,
                                                /*num_threads=*/2,
                                                /*shard_traces=*/4);
      ASSERT_TRUE(grown.ok());
      ASSERT_TRUE(grown->AppendTraces(appended, /*num_threads=*/2).ok());
      const auto rebuilt = SimilarityQueryEngine::Build(
          full, measure, window, /*num_threads=*/2, /*shard_traces=*/4);
      ASSERT_TRUE(rebuilt.ok());
      for (const size_t k : {1ul, 4ul, 23ul}) {
        const auto grown_ranked = grown->RankNeighbors(query, k);
        const auto rebuilt_ranked = rebuilt->RankNeighbors(query, k);
        ASSERT_TRUE(grown_ranked.ok() && rebuilt_ranked.ok());
        EXPECT_EQ(*grown_ranked, *rebuilt_ranked)
            << measure << " window=" << window << " k=" << k;
        EXPECT_EQ(*grown_ranked, ExhaustiveTopK(*grown, query, k));
      }
    }
  }
}

bool BitsEqual(const double* a, const double* b, size_t n) {
  return std::memcmp(a, b, n * sizeof(double)) == 0;
}

TEST(SimilaritySketchTest, AppendedEngineIsARebuild) {
  // An append rebuilds the whole DTW index, so the appended engine equals a
  // fresh Build of the concatenation in every array — the column mirror,
  // the envelopes and the sketch records — and so prunes exactly as the
  // rebuild does. The tail's values leave the head's frame (x5 + offset):
  // sketches against a frame taken from the head alone would differ.
  const std::vector<Matrix> head = RandomCorpus(131, 12, 9, 2);
  std::vector<Matrix> tail = RandomCorpus(132, 8, 9, 2);
  for (Matrix& m : tail) {
    for (double& v : m.data()) v = v * 5.0 - 2.0;
  }
  std::vector<Matrix> full = head;
  full.insert(full.end(), tail.begin(), tail.end());
  Rng rng(133);
  const Matrix query = RandomSeries(rng, 9, 2);
  const char* const kCounters[] = {
      "similarity.query.exact",        "similarity.lb.pruned",
      "similarity.lb.kim_pruned",      "similarity.lb.keogh_pruned",
      "similarity.sketch.pruned",      "similarity.dtw.abandoned_candidates",
      "similarity.dtw.cells_in_band"};
  auto& registry = obs::MetricsRegistry::Global();
  const auto prune_counters = [&](const SimilarityQueryEngine& engine) {
    registry.ResetAll();
    EXPECT_TRUE(engine.RankNeighbors(query, 3).ok());
    std::vector<uint64_t> values;
    for (const char* name : kCounters) {
      values.push_back(registry.GetCounter(name).value());
    }
    return values;
  };
  obs::SetMetricsEnabled(true);
  for (const char* measure : {"Dependent-DTW", "Independent-DTW"}) {
    for (const int window : {0, 2}) {
      SCOPED_TRACE(std::string(measure) + " window=" +
                   std::to_string(window));
      auto grown = SimilarityQueryEngine::Build(head, measure, window,
                                                /*num_threads=*/2,
                                                /*shard_traces=*/4,
                                                /*sketch_bins=*/6);
      ASSERT_TRUE(grown.ok());
      ASSERT_TRUE(grown->AppendTraces(tail, /*num_threads=*/2).ok());
      const auto rebuilt = SimilarityQueryEngine::Build(
          full, measure, window, /*num_threads=*/1, /*shard_traces=*/4,
          /*sketch_bins=*/6);
      ASSERT_TRUE(rebuilt.ok());
      ASSERT_EQ(grown->corpus().size(), full.size());
      EXPECT_EQ(grown->num_shards(), rebuilt->num_shards());
      EXPECT_EQ(grown->sketch_bins(), rebuilt->sketch_bins());
      const size_t stride = rebuilt->sketches().layout().stride();
      ASSERT_EQ(grown->sketches().layout().stride(), stride);
      for (size_t i = 0; i < full.size(); ++i) {
        const size_t size = full[i].size();
        EXPECT_TRUE(BitsEqual(grown->col_data(i), rebuilt->col_data(i), size))
            << "mirror " << i;
        EXPECT_TRUE(BitsEqual(grown->envelope_lower(i),
                              rebuilt->envelope_lower(i), size))
            << "lower envelope " << i;
        EXPECT_TRUE(BitsEqual(grown->envelope_upper(i),
                              rebuilt->envelope_upper(i), size))
            << "upper envelope " << i;
        EXPECT_TRUE(BitsEqual(grown->sketches().At(i),
                              rebuilt->sketches().At(i), stride))
            << "sketch " << i;
      }
      EXPECT_EQ(prune_counters(*grown), prune_counters(*rebuilt));
      EXPECT_EQ(grown->RankNeighbors(query, 3).value(),
                rebuilt->RankNeighbors(query, 3).value());
    }
  }
  obs::SetMetricsEnabled(false);
  registry.ResetAll();
}

TEST(SimilaritySketchTest, EmptyAppendIsStrictNoOp) {
  // An empty batch must not move the engine's arrays, change the shard
  // count, or change any result.
  const std::vector<Matrix> traces = RandomCorpus(111, 7, 8, 2);
  auto engine = SimilarityQueryEngine::Build(
      traces, "Dependent-DTW", /*window=*/2, /*num_threads=*/1,
      /*shard_traces=*/3);
  ASSERT_TRUE(engine.ok());
  const size_t shards_before = engine->num_shards();
  const double* cols_before = engine->col_data(0);
  const double* lower_before = engine->envelope_lower(0);
  const double* upper_before = engine->envelope_upper(0);
  const double* sketch_before = engine->sketches().At(0);
  Rng rng(112);
  const Matrix query = RandomSeries(rng, 8, 2);
  const auto before = engine->RankNeighbors(query, 3);
  ASSERT_TRUE(before.ok());
  ASSERT_TRUE(engine->AppendTraces({}).ok());
  EXPECT_EQ(engine->num_shards(), shards_before);
  EXPECT_EQ(engine->corpus().size(), traces.size());
  EXPECT_EQ(engine->col_data(0), cols_before);
  EXPECT_EQ(engine->envelope_lower(0), lower_before);
  EXPECT_EQ(engine->envelope_upper(0), upper_before);
  EXPECT_EQ(engine->sketches().At(0), sketch_before);
  const auto after = engine->RankNeighbors(query, 3);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(*before, *after);
}

TEST(SimilaritySketchTest, BinsValidation) {
  const std::vector<Matrix> traces = RandomCorpus(121, 4, 6, 2);
  // Engine: 0 defaults; >= 2 honoured; 1 and negatives are hard errors,
  // for every measure.
  for (const char* measure : {"Dependent-DTW", "L2,1-Norm"}) {
    for (const int bins : {1, -1, -8}) {
      const auto rejected =
          SimilarityQueryEngine::Build(traces, measure, /*window=*/0,
                                       /*num_threads=*/1, /*shard_traces=*/0,
                                       /*sketch_bins=*/bins);
      ASSERT_FALSE(rejected.ok()) << measure << " bins=" << bins;
      EXPECT_EQ(rejected.status().code(), StatusCode::kInvalidArgument);
    }
  }
  const auto by_default = SimilarityQueryEngine::Build(
      traces, "Dependent-DTW", 0, 1, 0, /*sketch_bins=*/0);
  ASSERT_TRUE(by_default.ok());
  EXPECT_EQ(by_default->sketch_bins(), TraceSketchSet::kDefaultBins);
  const auto custom = SimilarityQueryEngine::Build(traces, "Dependent-DTW", 0,
                                                   1, 0, /*sketch_bins=*/16);
  ASSERT_TRUE(custom.ok());
  EXPECT_EQ(custom->sketch_bins(), 16);
  // Generic measures never sketch, whatever the knob says.
  const auto generic = SimilarityQueryEngine::Build(traces, "L2,1-Norm", 0, 1,
                                                    0, /*sketch_bins=*/8);
  ASSERT_TRUE(generic.ok());
  EXPECT_EQ(generic->sketch_bins(), 0);
  // Raw sketch set: bins < 2 rejected.
  TraceSketchSet sketches;
  EXPECT_FALSE(sketches.Build(traces, /*bins=*/1, /*num_threads=*/1).ok());
  EXPECT_FALSE(sketches.Build(traces, /*bins=*/0, /*num_threads=*/1).ok());
}

TEST(SimilaritySketchTest, RecordFieldsMatchSeries) {
  // The flat record must carry exactly the per-feature endpoints, range,
  // histogram mass, and PAA envelopes of the series it sketches.
  Rng rng(131);
  const Matrix series = RandomSeries(rng, 12, 2);
  const std::vector<Matrix> corpus{series};
  TraceSketchSet sketches;
  ASSERT_TRUE(sketches.Build(corpus, /*bins=*/8, /*num_threads=*/1).ok());
  const SketchLayout& layout = sketches.layout();
  const double* rec = sketches.At(0);
  EXPECT_EQ(rec[0], static_cast<double>(series.rows()));
  for (size_t f = 0; f < series.cols(); ++f) {
    EXPECT_EQ(rec[layout.first() + f], series(0, f));
    EXPECT_EQ(rec[layout.last() + f], series(series.rows() - 1, f));
    double lo = series(0, f), hi = series(0, f);
    for (size_t r = 1; r < series.rows(); ++r) {
      lo = std::min(lo, series(r, f));
      hi = std::max(hi, series(r, f));
    }
    EXPECT_EQ(rec[layout.min() + f], lo);
    EXPECT_EQ(rec[layout.max() + f], hi);
    // Histogram mass: counts sum to rows; occupied bins have zero gap.
    double mass = 0.0;
    for (int b = 0; b < layout.bins; ++b) {
      const double count =
          rec[layout.counts() + f * static_cast<size_t>(layout.bins) +
              static_cast<size_t>(b)];
      const double gapsq =
          rec[layout.gapsq() + f * static_cast<size_t>(layout.bins) +
              static_cast<size_t>(b)];
      mass += count;
      if (count > 0.0) EXPECT_EQ(gapsq, 0.0) << "f=" << f << " b=" << b;
      EXPECT_GE(gapsq, 0.0);
    }
    EXPECT_EQ(mass, static_cast<double>(series.rows()));
    // PAA envelopes contain every row mapped into their segment.
    for (size_t r = 0; r < series.rows(); ++r) {
      const size_t seg =
          ((r + 1) * static_cast<size_t>(layout.segments) - 1) / series.rows();
      const double seg_lo =
          rec[layout.paa_lo() + f * static_cast<size_t>(layout.segments) +
              seg];
      const double seg_hi =
          rec[layout.paa_hi() + f * static_cast<size_t>(layout.segments) +
              seg];
      EXPECT_LE(seg_lo, series(r, f)) << "f=" << f << " r=" << r;
      EXPECT_GE(seg_hi, series(r, f)) << "f=" << f << " r=" << r;
    }
  }
}

}  // namespace
}  // namespace wpred
