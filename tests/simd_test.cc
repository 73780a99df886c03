// Portable SIMD layer (common/simd.h) and the similarity kernels built on
// it, each checked against its test-only oracle (reference_kernels.h).
// Elementwise kernels and min/max are exact; reductions match the
// sequential loops to within reassociation; completed DTW distances,
// envelopes and the engine's top-k are bit-identical to the textbook
// row-order DTW, the Lemire deque and an exhaustive argsort.

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/simd.h"
#include "linalg/matrix.h"
#include "reference_kernels.h"
#include "similarity/dtw.h"
#include "similarity/query.h"

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

std::vector<double> RandomSpan(Rng& rng, size_t n, double lo = -2.0,
                               double hi = 2.0) {
  std::vector<double> v(n);
  for (double& x : v) x = rng.Uniform(lo, hi);
  return v;
}

TEST(SimdTest, ReductionKernelsMatchSequentialReference) {
  // The lane-split reductions may differ from the sequential oracle only by
  // reassociation, so they must agree with it to tight tolerance.
  Rng rng(7);
  for (const size_t n : {0ul, 1ul, 3ul, 8ul, 9ul, 64ul, 333ul}) {
    const std::vector<double> a = RandomSpan(rng, n);
    const std::vector<double> b = RandomSpan(rng, n);
    std::vector<double> lo(n), hi(n);
    for (size_t i = 0; i < n; ++i) {
      lo[i] = std::min(a[i], b[i]) - rng.Uniform(0.0, 0.5);
      hi[i] = std::max(a[i], b[i]) + rng.Uniform(0.0, 0.5);
    }
    const std::vector<double> v = RandomSpan(rng, n, -3.0, 3.0);
    const double tol = 1e-12 * (1.0 + static_cast<double>(n));
    EXPECT_NEAR(simd::SquaredL2(a.data(), b.data(), n),
                reference::SquaredL2(a.data(), b.data(), n), tol)
        << "n=" << n;
    EXPECT_NEAR(simd::Dot(a.data(), b.data(), n),
                reference::Dot(a.data(), b.data(), n), tol)
        << "n=" << n;
    EXPECT_NEAR(simd::EnvelopeGapSq(v.data(), lo.data(), hi.data(), n),
                reference::EnvelopeGapSq(v.data(), lo.data(), hi.data(), n),
                tol)
        << "n=" << n;
  }
}

TEST(SimdTest, ElementwiseAndMinMaxKernelsAreExact) {
  Rng rng(11);
  const double inf = std::numeric_limits<double>::infinity();
  for (const size_t n : {1ul, 7ul, 8ul, 65ul}) {
    const std::vector<double> a = RandomSpan(rng, n);
    const std::vector<double> b = RandomSpan(rng, n);
    // The anti-diagonal fill walks `b` backward from its last element.
    std::vector<double> cost(n, 0.25);
    simd::AccumulateAntiDiagCost(a.data(), b.data() + (n - 1), cost.data(), n);
    // The relax sees the DTW band edges as +inf predecessors.
    std::vector<double> left = RandomSpan(rng, n);
    std::vector<double> up = RandomSpan(rng, n);
    std::vector<double> diag = RandomSpan(rng, n);
    left[0] = inf;
    up[n - 1] = inf;
    std::vector<double> out(n);
    simd::RelaxAntiDiag(cost.data(), left.data(), up.data(), diag.data(),
                        out.data(), n);
    for (size_t t = 0; t < n; ++t) {
      const double d = a[t] - b[n - 1 - t];
      EXPECT_EQ(cost[t], 0.25 + d * d) << "t=" << t;
      EXPECT_EQ(out[t], cost[t] + std::min(left[t], std::min(up[t], diag[t])))
          << "t=" << t;
    }
    EXPECT_EQ(simd::MinValue(a.data(), n),
              *std::min_element(a.begin(), a.end()));
    EXPECT_EQ(simd::MaxValue(a.data(), n),
              *std::max_element(a.begin(), a.end()));
  }
}

TEST(SimdTest, DtwDistancesBitIdenticalAcrossModes) {
  // Exact DTW distances are built only from elementwise kernels plus exact
  // min, so every completed wavefront distance must equal the row-order
  // oracle's BITWISE — including unequal lengths and both measures. Under
  // a finite cutoff the two may ABANDON a doomed candidate at different
  // points (the oracle tests per-row minima, the wavefront
  // per-pair-of-diagonals), so when exactly one abandons, the other's
  // completed distance must certify the same verdict: >= the cutoff.
  // Rankings cannot tell these apart (strict > pruning with a one-ulp-
  // bumped abandon cutoff), which TopKBitIdenticalAcrossModes pins end to
  // end.
  Rng rng(23);
  const auto expect_equivalent = [](const DtwEarlyAbandon& wave,
                                    const DtwEarlyAbandon& row, double cutoff,
                                    const std::string& what) {
    if (wave.abandoned == row.abandoned) {
      EXPECT_EQ(wave.distance, row.distance) << what;
    } else {
      const DtwEarlyAbandon& completed = wave.abandoned ? row : wave;
      EXPECT_GE(completed.distance, cutoff) << what;
    }
  };
  for (int trial = 0; trial < 20; ++trial) {
    const size_t m = 2 + trial % 13;
    const size_t n = 2 + (trial * 7) % 13;
    const size_t d = 1 + trial % 4;
    const Matrix a = RandomSeries(rng, m, d);
    const Matrix b = RandomSeries(rng, n, d);
    const std::vector<double> ac = a.ColumnMajor();
    const std::vector<double> bc = b.ColumnMajor();
    for (const int window : {0, 2}) {
      for (const double cutoff : {kInf, 1.5, 0.4}) {
        const Result<DtwEarlyAbandon> dep_wave = DependentDtwColsEarlyAbandon(
            ac.data(), m, bc.data(), n, d, window, cutoff);
        const Result<DtwEarlyAbandon> ind_wave =
            IndependentDtwColsEarlyAbandon(ac.data(), m, bc.data(), n, d,
                                           window, cutoff);
        const Result<DtwEarlyAbandon> dep_row =
            reference::DependentDtw(a, b, window, cutoff);
        const Result<DtwEarlyAbandon> ind_row =
            reference::IndependentDtw(a, b, window, cutoff);
        ASSERT_TRUE(dep_wave.ok() && dep_row.ok() && ind_wave.ok() &&
                    ind_row.ok());
        const std::string what = "trial=" + std::to_string(trial) +
                                 " window=" + std::to_string(window) +
                                 " cutoff=" + std::to_string(cutoff);
        expect_equivalent(*dep_wave, *dep_row, cutoff, "dep " + what);
        expect_equivalent(*ind_wave, *ind_row, cutoff, "ind " + what);
        // With no cutoff there is no abandoning and no wiggle room at all.
        if (cutoff == kInf) {
          EXPECT_EQ(dep_wave->distance, dep_row->distance) << what;
          EXPECT_EQ(ind_wave->distance, ind_row->distance) << what;
        }
      }
    }
  }
}

TEST(SimdTest, EnvelopeVanHerkMatchesDequeBitwise) {
  // Both envelope algorithms compute the exact windowed min/max, so the
  // van Herk pass must reproduce the Lemire deque oracle at every row,
  // window, and shape — including bands wider than the series.
  Rng rng(31);
  for (const size_t rows : {1ul, 2ul, 5ul, 17ul, 64ul}) {
    for (const size_t cols : {1ul, 3ul}) {
      const Matrix series = RandomSeries(rng, rows, cols);
      for (const int window :
           {0, 1, 2, 3, static_cast<int>(rows), static_cast<int>(rows) + 4}) {
        std::vector<double> lo_vh(series.size()), hi_vh(series.size());
        std::vector<double> lo_dq(series.size()), hi_dq(series.size());
        query_internal::BuildEnvelopeColumns(series, window, lo_vh.data(),
                                             hi_vh.data());
        reference::BuildEnvelopeColumns(series, window, lo_dq.data(),
                                        hi_dq.data());
        EXPECT_EQ(lo_vh, lo_dq) << "rows=" << rows << " window=" << window;
        EXPECT_EQ(hi_vh, hi_dq) << "rows=" << rows << " window=" << window;
      }
    }
  }
}

TEST(SimdTest, TopKBitIdenticalAcrossModes) {
  // End to end: the engine's ranked results — indices and distances — must
  // equal an exhaustive argsort of the row-order oracle's distances, for
  // either DTW measure and window.
  const std::vector<Matrix> corpus = RandomCorpus(41, 24, 12, 3);
  Rng rng(42);
  const Matrix query = RandomSeries(rng, 12, 3);
  for (const char* measure : {"Dependent-DTW", "Independent-DTW"}) {
    for (const int window : {0, 3}) {
      const Result<std::vector<Neighbor>> expected =
          reference::ExhaustiveTopK(corpus, query, measure, window, 6);
      ASSERT_TRUE(expected.ok()) << expected.status().ToString();
      const auto engine = SimilarityQueryEngine::Build(
          corpus, measure, window, /*num_threads=*/2, /*shard_traces=*/5);
      ASSERT_TRUE(engine.ok()) << engine.status().ToString();
      const auto ranked = engine->RankNeighbors(query, 6);
      ASSERT_TRUE(ranked.ok()) << ranked.status().ToString();
      EXPECT_EQ(*ranked, *expected) << measure << " window=" << window;
    }
  }
}

TEST(SimdTest, ColumnMajorMirrorsMatchMatrix) {
  // Matrix::ColumnMajor and the engine's column-major corpus mirror are
  // bitwise copies of the row-major data.
  Rng rng(51);
  const Matrix m = RandomSeries(rng, 9, 4);
  const std::vector<double> cols = m.ColumnMajor();
  ASSERT_EQ(cols.size(), m.size());
  for (size_t f = 0; f < m.cols(); ++f) {
    for (size_t r = 0; r < m.rows(); ++r) {
      EXPECT_EQ(cols[f * m.rows() + r], m(r, f));
    }
  }
  // One engine built whole, one grown a trace at a time: appends that
  // reallocate the mirror must leave every offset pointing at its trace.
  const std::vector<Matrix> corpus = RandomCorpus(52, 11, 7, 3);
  const auto built = SimilarityQueryEngine::Build(corpus, "Dependent-DTW");
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  auto grown = SimilarityQueryEngine::Build({corpus[0]}, "Dependent-DTW");
  ASSERT_TRUE(grown.ok()) << grown.status().ToString();
  for (size_t i = 1; i < corpus.size(); ++i) {
    ASSERT_TRUE(grown->AppendTraces({corpus[i]}).ok());
  }
  for (const auto* engine : {&*built, &std::as_const(*grown)}) {
    for (size_t i = 0; i < corpus.size(); ++i) {
      const double* data = engine->col_data(i);
      for (size_t f = 0; f < corpus[i].cols(); ++f) {
        for (size_t r = 0; r < corpus[i].rows(); ++r) {
          EXPECT_EQ(data[f * corpus[i].rows() + r], corpus[i](r, f))
              << "trace " << i;
        }
      }
    }
  }
}

}  // namespace
}  // namespace wpred
