#include <cmath>
#include <limits>
#include <string>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "obs/metrics.h"
#include "similarity/bcpd.h"
#include "similarity/dtw.h"
#include "similarity/eval.h"
#include "similarity/lcss.h"
#include "similarity/measures.h"
#include "similarity/norms.h"
#include "similarity/representation.h"

namespace wpred {
namespace {

TEST(NormsTest, KnownValues) {
  Matrix a{{1, 2}, {3, 4}};
  Matrix b{{1, 0}, {0, 4}};
  EXPECT_DOUBLE_EQ(L11Distance(a, b).value(), 5.0);
  EXPECT_DOUBLE_EQ(L21Distance(a, b).value(), 3.0 + 2.0);
  EXPECT_DOUBLE_EQ(FrobeniusDistance(a, b).value(), std::sqrt(13.0));
  EXPECT_DOUBLE_EQ(CanberraDistance(a, b).value(), 1.0 + 1.0);
  EXPECT_DOUBLE_EQ(Chi2Distance(a, b).value(), 0.5 * (4.0 / 2.0 + 9.0 / 3.0));
}

TEST(NormsTest, IdentityOfIndiscernibles) {
  Matrix a{{0.3, 0.7}, {0.1, 0.9}};
  for (const std::string& name : NormMeasureNames()) {
    const auto d = MeasureDistance(name, a, a);
    ASSERT_TRUE(d.ok()) << name;
    EXPECT_NEAR(d.value(), 0.0, 1e-12) << name;
  }
}

TEST(NormsTest, SymmetryProperty) {
  Rng rng(1);
  Matrix a(4, 3), b(4, 3);
  for (double& v : a.data()) v = rng.Uniform(0.01, 1.0);
  for (double& v : b.data()) v = rng.Uniform(0.01, 1.0);
  for (const std::string& name : NormMeasureNames()) {
    EXPECT_DOUBLE_EQ(MeasureDistance(name, a, b).value(),
                     MeasureDistance(name, b, a).value())
        << name;
  }
}

TEST(NormsTest, ShapeMismatchRejected) {
  Matrix a(2, 2), b(3, 2);
  for (const std::string& name : NormMeasureNames()) {
    EXPECT_FALSE(MeasureDistance(name, a, b).ok()) << name;
  }
}

TEST(NormsTest, CorrelationDistanceRange) {
  Matrix a{{1, 2, 3, 4}};
  Matrix b{{2, 4, 6, 8}};
  Matrix c{{4, 3, 2, 1}};
  EXPECT_NEAR(CorrelationDistance(a, b).value(), 0.0, 1e-12);
  EXPECT_NEAR(CorrelationDistance(a, c).value(), 2.0, 1e-12);
}

TEST(DtwTest, EqualSeriesIsZero) {
  const Vector a{1, 2, 3, 2, 1};
  EXPECT_DOUBLE_EQ(DtwDistance(a, a).value(), 0.0);
}

TEST(DtwTest, HandlesTimeShiftBetterThanEuclidean) {
  // A bump shifted by 2 samples: DTW aligns it, Euclidean can't.
  Vector a(20, 0.0), b(20, 0.0);
  for (int i = 5; i < 10; ++i) a[i] = 1.0;
  for (int i = 7; i < 12; ++i) b[i] = 1.0;
  const double dtw = DtwDistance(a, b).value();
  double euclid = 0.0;
  for (size_t i = 0; i < a.size(); ++i) euclid += (a[i] - b[i]) * (a[i] - b[i]);
  euclid = std::sqrt(euclid);
  EXPECT_LT(dtw, 0.25 * euclid);
}

TEST(DtwTest, DifferentLengthsSupported) {
  const Vector a{0, 1, 2, 3, 4};
  const Vector b{0, 0, 1, 1, 2, 2, 3, 3, 4, 4};  // stretched version
  const auto d = DtwDistance(a, b);
  ASSERT_TRUE(d.ok());
  EXPECT_NEAR(d.value(), 0.0, 1e-12);  // perfect warping alignment
}

TEST(DtwTest, WindowConstraint) {
  const Vector a{0, 1, 2, 3, 4, 5, 6, 7};
  // Band of 1 still admits the diagonal.
  EXPECT_TRUE(DtwDistance(a, a, 1).ok());
  // A narrow window on very different lengths widens to the length
  // difference (the standard Sakoe-Chiba adjustment) instead of erroring.
  const Vector shorty{1.0};
  const auto d = DtwDistance(a, shorty, 1);
  ASSERT_TRUE(d.ok());
  EXPECT_GT(d.value(), 0.0);
}

TEST(DtwTest, NarrowWindowOnUnequalLengthsMatchesWidenedBand) {
  // Regression: window < |m - n| used to return "window too narrow" even
  // though windowed DTW is well-defined for unequal-length series. The band
  // must behave exactly like max(window, |m - n|).
  const Vector a{0, 1, 2, 3, 4};
  const Vector b{0, 0, 1, 1, 2, 2, 3, 3, 4, 4};  // stretched; |m - n| = 5
  const auto narrow = DtwDistance(a, b, 2);
  ASSERT_TRUE(narrow.ok());
  const auto widened = DtwDistance(a, b, 5);
  ASSERT_TRUE(widened.ok());
  EXPECT_DOUBLE_EQ(narrow.value(), widened.value());
  // A window that already admits the stretched diagonal is not shrunk.
  const auto wide = DtwDistance(a, b, 9);
  ASSERT_TRUE(wide.ok());
  EXPECT_LE(wide.value(), narrow.value());
}

TEST(DtwTest, DependentVsIndependentMultivariate) {
  Rng rng(2);
  Matrix a(12, 3), b(12, 3);
  for (double& v : a.data()) v = rng.Uniform(0, 1);
  for (double& v : b.data()) v = rng.Uniform(0, 1);
  const double dep = DependentDtwDistance(a, b).value();
  const double ind = IndependentDtwDistance(a, b).value();
  EXPECT_GT(dep, 0.0);
  EXPECT_GT(ind, 0.0);
  // Independent alignment is at least as flexible per dimension, so the sum
  // of optimal per-dimension costs cannot exceed the joint-alignment cost
  // evaluated per dimension... they differ; just check both are finite and
  // symmetric.
  EXPECT_DOUBLE_EQ(DependentDtwDistance(b, a).value(), dep);
  EXPECT_DOUBLE_EQ(IndependentDtwDistance(b, a).value(), ind);
}

TEST(DtwTest, NonFiniteInputsRejectedInEveryBuildType) {
  // Promoted from a DCHECK: release builds used to fold NaN/inf through the
  // lattice silently. The public entry points now return InvalidArgument.
  const Vector clean{0.1, 0.2, 0.3};
  for (const double bad : {std::nan(""),
                           std::numeric_limits<double>::infinity()}) {
    const Vector dirty{0.1, bad, 0.3};
    EXPECT_FALSE(DtwDistance(clean, dirty).ok());
    EXPECT_FALSE(DtwDistance(dirty, clean).ok());
    Matrix a(3, 2), b(3, 2);
    for (double& v : a.data()) v = 0.5;
    b = a;
    b(1, 1) = bad;
    EXPECT_FALSE(DependentDtwDistance(a, b).ok());
    EXPECT_FALSE(DependentDtwDistance(b, a).ok());
    EXPECT_FALSE(IndependentDtwDistance(a, b).ok());
    const Status status = DtwDistance(clean, dirty).status();
    EXPECT_NE(status.message().find("non-finite"), std::string::npos)
        << status.message();
  }
}

TEST(DtwTest, EarlyAbandonMetricsOnlyOnSuccess) {
  // A window too narrow to reach the endpoint errors out; the error path
  // must not pollute the kernel counters.
  obs::SetMetricsEnabled(true);
  obs::MetricsRegistry::Global().ResetAll();
  const Vector a{0.1, 0.2, 0.3, 0.4, 0.5, 0.6};
  EXPECT_TRUE(DtwDistance(a, a, 1).ok());
  auto& registry = obs::MetricsRegistry::Global();
  const uint64_t calls_after_ok =
      registry.GetCounter("similarity.dtw.calls").value();
  EXPECT_EQ(calls_after_ok, 1u);
  obs::SetMetricsEnabled(false);
  registry.ResetAll();
}

TEST(LcssTest, NonFiniteInputsRejectedInEveryBuildType) {
  const Vector clean{0.1, 0.2, 0.3};
  const Vector dirty{0.1, std::nan(""), 0.3};
  EXPECT_FALSE(LcssDistance(clean, dirty, 0.1).ok());
  EXPECT_FALSE(LcssDistance(dirty, clean, 0.1).ok());
  Matrix a(3, 2), b(3, 2);
  for (double& v : a.data()) v = 0.5;
  b = a;
  b(0, 0) = std::numeric_limits<double>::infinity();
  EXPECT_FALSE(DependentLcssDistance(a, b, 0.1).ok());
  EXPECT_FALSE(IndependentLcssDistance(a, b, 0.1).ok());
  const Status status = LcssDistance(clean, dirty, 0.1).status();
  EXPECT_NE(status.message().find("non-finite"), std::string::npos)
      << status.message();
}

TEST(LcssTest, IdenticalSeriesDistanceZero) {
  const Vector a{0.1, 0.2, 0.3};
  EXPECT_DOUBLE_EQ(LcssDistance(a, a, 0.01).value(), 0.0);
}

TEST(LcssTest, DisjointSeriesDistanceOne) {
  const Vector a{0.0, 0.0, 0.0};
  const Vector b{1.0, 1.0, 1.0};
  EXPECT_DOUBLE_EQ(LcssDistance(a, b, 0.1).value(), 1.0);
}

TEST(LcssTest, ToleratesDifferentLengths) {
  const Vector a{0.1, 0.5, 0.9};
  const Vector b{0.1, 0.3, 0.5, 0.7, 0.9};
  const auto d = LcssDistance(a, b, 0.05);
  ASSERT_TRUE(d.ok());
  EXPECT_DOUBLE_EQ(d.value(), 0.0);  // a is a subsequence of b
}

TEST(LcssTest, DependentStricterThanIndependent) {
  // Dim 0 matches everywhere, dim 1 never: dependent finds no matches,
  // independent averages 0 and 1.
  Matrix a{{0.5, 0.0}, {0.5, 0.0}, {0.5, 0.0}};
  Matrix b{{0.5, 1.0}, {0.5, 1.0}, {0.5, 1.0}};
  EXPECT_DOUBLE_EQ(DependentLcssDistance(a, b, 0.1).value(), 1.0);
  EXPECT_DOUBLE_EQ(IndependentLcssDistance(a, b, 0.1).value(), 0.5);
}

TEST(LcssTest, RejectsNegativeEpsilon) {
  EXPECT_FALSE(LcssDistance({1.0}, {1.0}, -0.1).ok());
}

TEST(IndependentMeasuresTest, BothAverageOverFeatures) {
  // Both "Independent" measures pin the same convention: the MEAN of the
  // per-feature distances, so the scale does not drift with the size of the
  // selected-feature set across feature-selection ablations. Duplicating
  // every column must leave the distance unchanged and equal to the
  // univariate distance of one column.
  Rng rng(7);
  const size_t steps = 10;
  Matrix a1(steps, 1), b1(steps, 1);
  for (double& v : a1.data()) v = rng.Uniform(0, 1);
  for (double& v : b1.data()) v = rng.Uniform(0, 1);
  Matrix a3(steps, 3), b3(steps, 3);
  for (size_t t = 0; t < steps; ++t) {
    for (size_t f = 0; f < 3; ++f) {
      a3(t, f) = a1(t, 0);
      b3(t, f) = b1(t, 0);
    }
  }

  const double dtw_uni = DtwDistance(a1.Col(0), b1.Col(0)).value();
  EXPECT_DOUBLE_EQ(IndependentDtwDistance(a1, b1).value(), dtw_uni);
  EXPECT_DOUBLE_EQ(IndependentDtwDistance(a3, b3).value(), dtw_uni);

  const double eps = 0.15;
  const double lcss_uni = LcssDistance(a1.Col(0), b1.Col(0), eps).value();
  EXPECT_DOUBLE_EQ(IndependentLcssDistance(a1, b1, eps).value(), lcss_uni);
  EXPECT_DOUBLE_EQ(IndependentLcssDistance(a3, b3, eps).value(), lcss_uni);
}

TEST(BcpdTest, DetectsSingleMeanShift) {
  Rng rng(3);
  Vector series;
  for (int i = 0; i < 80; ++i) series.push_back(rng.Gaussian(0.0, 0.05));
  for (int i = 0; i < 80; ++i) series.push_back(rng.Gaussian(1.0, 0.05));
  const auto cps = DetectChangePoints(series);
  ASSERT_TRUE(cps.ok());
  ASSERT_GE(cps->size(), 1u);
  bool found = false;
  for (size_t cp : cps.value()) {
    if (cp >= 75 && cp <= 85) found = true;
  }
  EXPECT_TRUE(found) << "no change point near 80";
}

TEST(BcpdTest, QuietSeriesHasFewChangePoints) {
  Rng rng(4);
  Vector series;
  for (int i = 0; i < 200; ++i) series.push_back(rng.Gaussian(0.5, 0.05));
  const auto cps = DetectChangePoints(series);
  ASSERT_TRUE(cps.ok());
  EXPECT_LE(cps->size(), 2u);
}

TEST(BcpdTest, SegmentsPartitionSeries) {
  const auto segments = SegmentsFromChangePoints(10, {3, 7});
  ASSERT_EQ(segments.size(), 3u);
  EXPECT_EQ(segments[0].begin, 0u);
  EXPECT_EQ(segments[0].end, 3u);
  EXPECT_EQ(segments[2].end, 10u);
}

TEST(BcpdTest, RejectsBadInputs) {
  EXPECT_FALSE(DetectChangePoints({}).ok());
  BcpdParams params;
  params.hazard_lambda = 0.5;
  EXPECT_FALSE(DetectChangePoints({1.0, 2.0}, params).ok());
}

// --- Representation tests on a tiny synthetic corpus. ---

Experiment SyntheticExperiment(const std::string& workload, double level,
                               uint64_t seed) {
  Rng rng(seed);
  Experiment e;
  e.workload = workload;
  e.type = WorkloadType::kMixed;
  e.resource.values = Matrix(60, kNumResourceFeatures);
  for (size_t r = 0; r < 60; ++r) {
    for (size_t c = 0; c < kNumResourceFeatures; ++c) {
      e.resource.values(r, c) = level * (1.0 + 0.1 * c) + rng.Gaussian(0, 0.02);
    }
  }
  e.plans.values = Matrix(6, kNumPlanFeatures);
  for (size_t r = 0; r < 6; ++r) {
    for (size_t c = 0; c < kNumPlanFeatures; ++c) {
      e.plans.values(r, c) = level * (2.0 + 0.05 * c) + rng.Gaussian(0, 0.02);
    }
  }
  e.plans.query_names.assign(6, "q");
  return e;
}

ExperimentCorpus SyntheticCorpus() {
  ExperimentCorpus corpus;
  corpus.Add(SyntheticExperiment("A", 1.0, 1));
  corpus.Add(SyntheticExperiment("A", 1.0, 2));
  corpus.Add(SyntheticExperiment("B", 5.0, 3));
  corpus.Add(SyntheticExperiment("B", 5.0, 4));
  return corpus;
}

TEST(RepresentationTest, NormalizationContextCoversCorpus) {
  const ExperimentCorpus corpus = SyntheticCorpus();
  const NormalizationContext ctx = ComputeNormalization(corpus);
  for (size_t f = 0; f < kNumFeatures; ++f) {
    EXPECT_LE(ctx.min[f], ctx.max[f]);
  }
  EXPECT_DOUBLE_EQ(NormalizeValue(ctx, 0, ctx.min[0]), 0.0);
  EXPECT_DOUBLE_EQ(NormalizeValue(ctx, 0, ctx.max[0]), 1.0);
  // Out of range clamps.
  EXPECT_DOUBLE_EQ(NormalizeValue(ctx, 0, ctx.max[0] + 100), 1.0);
}

TEST(RepresentationTest, MissingColumnsAreRejectedNotRead) {
  const ExperimentCorpus corpus = SyntheticCorpus();
  Experiment narrow = corpus[0];
  narrow.resource.values = corpus[0].resource.values.SelectCols({0, 1});
  narrow.plans.values = corpus[0].plans.values.SelectCols({0});
  // Normalisation reads only the columns an experiment has; the narrow
  // copy's values are a subset of corpus[0]'s, so the context is unchanged.
  ExperimentCorpus with_narrow = corpus;
  with_narrow.Add(narrow);
  const NormalizationContext ctx = ComputeNormalization(corpus);
  const NormalizationContext widened = ComputeNormalization(with_narrow);
  EXPECT_EQ(widened.min, ctx.min);
  EXPECT_EQ(widened.max, ctx.max);

  for (Representation representation :
       {Representation::kMts, Representation::kHistFp,
        Representation::kPhaseFp}) {
    SCOPED_TRACE(std::string(RepresentationName(representation)));
    EXPECT_EQ(BuildRepresentation(representation, narrow, {0, 2}, ctx)
                  .status()
                  .code(),
              StatusCode::kInvalidArgument);
    EXPECT_TRUE(BuildRepresentation(representation, narrow, {1, 0}, ctx).ok());
  }
  EXPECT_EQ(
      BuildHistFp(narrow, {kNumResourceFeatures + 1}, ctx).status().code(),
      StatusCode::kInvalidArgument);
  EXPECT_TRUE(BuildHistFp(narrow, {kNumResourceFeatures}, ctx).ok());
}

TEST(RepresentationTest, MtsShapeAndResourceOnlyRule) {
  const ExperimentCorpus corpus = SyntheticCorpus();
  const NormalizationContext ctx = ComputeNormalization(corpus);
  const auto mts = BuildMts(corpus[0], {0, 1, 2}, ctx);
  ASSERT_TRUE(mts.ok());
  EXPECT_EQ(mts->rows(), 60u);
  EXPECT_EQ(mts->cols(), 3u);
  // Plan features are rejected for MTS.
  EXPECT_FALSE(BuildMts(corpus[0], {kNumResourceFeatures}, ctx).ok());
}

TEST(RepresentationTest, HistFpIsCumulativeEndingAtOne) {
  const ExperimentCorpus corpus = SyntheticCorpus();
  const NormalizationContext ctx = ComputeNormalization(corpus);
  const auto hist = BuildHistFp(corpus[0], {0, kNumResourceFeatures + 3}, ctx);
  ASSERT_TRUE(hist.ok());
  EXPECT_EQ(hist->rows(), 10u);
  EXPECT_EQ(hist->cols(), 2u);
  for (size_t c = 0; c < 2; ++c) {
    for (size_t b = 1; b < 10; ++b) {
      EXPECT_GE(hist.value()(b, c), hist.value()(b - 1, c) - 1e-12);
    }
    EXPECT_NEAR(hist.value()(9, c), 1.0, 1e-9);
  }
}

TEST(RepresentationTest, HistFpSeparatesDifferentWorkloads) {
  const ExperimentCorpus corpus = SyntheticCorpus();
  const NormalizationContext ctx = ComputeNormalization(corpus);
  std::vector<size_t> features = {0, 1, kNumResourceFeatures};
  const Matrix a0 = BuildHistFp(corpus[0], features, ctx).value();
  const Matrix a1 = BuildHistFp(corpus[1], features, ctx).value();
  const Matrix b0 = BuildHistFp(corpus[2], features, ctx).value();
  const double d_same = L21Distance(a0, a1).value();
  const double d_diff = L21Distance(a0, b0).value();
  EXPECT_LT(d_same, 0.2 * d_diff);
}

TEST(RepresentationTest, PhaseFpShapeAndPlanSinglePhase) {
  const ExperimentCorpus corpus = SyntheticCorpus();
  const NormalizationContext ctx = ComputeNormalization(corpus);
  const auto fp = BuildPhaseFp(corpus[0], {0, kNumResourceFeatures}, ctx, 4);
  ASSERT_TRUE(fp.ok());
  EXPECT_EQ(fp->rows(), 2u);
  EXPECT_EQ(fp->cols(), 12u);  // 4 phases x 3 stats
  // Plan feature (row 1): only the first phase populated; padding zero.
  for (size_t c = 3; c < 12; ++c) {
    EXPECT_DOUBLE_EQ(fp.value()(1, c), 0.0);
  }
}

TEST(RepresentationTest, NameRoundTrip) {
  for (Representation rep :
       {Representation::kMts, Representation::kHistFp,
        Representation::kPhaseFp}) {
    const auto back =
        RepresentationByName(std::string(RepresentationName(rep)));
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(back.value(), rep);
  }
  EXPECT_FALSE(RepresentationByName("nope").ok());
}

TEST(MeasuresTest, PairwiseDistanceMatrixProperties) {
  const ExperimentCorpus corpus = SyntheticCorpus();
  const auto dist = PairwiseDistances(corpus, Representation::kHistFp,
                                      "L2,1-Norm", {0, 1, 2});
  ASSERT_TRUE(dist.ok());
  EXPECT_EQ(dist->rows(), 4u);
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_DOUBLE_EQ(dist.value()(i, i), 0.0);
    for (size_t j = 0; j < 4; ++j) {
      EXPECT_DOUBLE_EQ(dist.value()(i, j), dist.value()(j, i));
      EXPECT_GE(dist.value()(i, j), 0.0);
    }
  }
}

TEST(MeasuresTest, UnknownMeasureRejected) {
  Matrix a(2, 2), b(2, 2);
  EXPECT_FALSE(MeasureDistance("nope", a, b).ok());
}

TEST(EvalTest, PerfectSeparationScoresOne) {
  const ExperimentCorpus corpus = SyntheticCorpus();
  const Matrix dist = PairwiseDistances(corpus, Representation::kHistFp,
                                        "L2,1-Norm", {0, 1, 2})
                          .value();
  const std::vector<int> labels = corpus.WorkloadLabels();
  EXPECT_DOUBLE_EQ(OneNnAccuracy(dist, labels).value(), 1.0);
  EXPECT_DOUBLE_EQ(MeanAveragePrecision(dist, labels).value(), 1.0);
  EXPECT_DOUBLE_EQ(Ndcg(dist, labels, {0, 0, 0, 0}).value(), 1.0);
}

TEST(EvalTest, AdversarialDistanceScoresLow) {
  // Distances that pair A with B: 1-NN should be 0.
  Matrix dist{{0, 9, 1, 9}, {9, 0, 9, 1}, {1, 9, 0, 9}, {9, 1, 9, 0}};
  const std::vector<int> labels{0, 0, 1, 1};
  EXPECT_DOUBLE_EQ(OneNnAccuracy(dist, labels).value(), 0.0);
  EXPECT_LT(MeanAveragePrecision(dist, labels).value(), 0.8);
}

TEST(EvalTest, NdcgRewardsTypeTierOrdering) {
  // Query 0: same-type neighbour ranked before different-type one.
  Matrix good{{0, 1, 2}, {1, 0, 2}, {2, 2, 0}};
  Matrix bad{{0, 2, 1}, {2, 0, 1}, {1, 1, 0}};
  const std::vector<int> labels{0, 1, 2};       // all different workloads
  const std::vector<int> types{0, 0, 1};        // 0 and 1 share a type
  EXPECT_GT(Ndcg(good, labels, types).value(), Ndcg(bad, labels, types).value());
}

TEST(EvalTest, RejectsMalformedInput) {
  Matrix rect(2, 3);
  EXPECT_FALSE(OneNnAccuracy(rect, {0, 1}).ok());
  Matrix square(2, 2);
  EXPECT_FALSE(OneNnAccuracy(square, {0}).ok());
  EXPECT_FALSE(Ndcg(square, {0, 1}, {0}).ok());
}

}  // namespace
}  // namespace wpred
