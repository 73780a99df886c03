#include "similarity/representation.h"

#include <algorithm>
#include <cmath>

#include "common/string_util.h"
#include "linalg/stats.h"

namespace wpred {
namespace {

// Normalised value vector of one catalog feature within an experiment:
// resource features come from the sampled time-series, plan features from
// the per-query plan observations.
Result<Vector> FeatureValues(const Experiment& experiment, size_t feature,
                             const NormalizationContext& ctx) {
  if (feature >= kNumFeatures) {
    return Status::OutOfRange("feature index out of catalog range");
  }
  Vector raw;
  if (feature < kNumResourceFeatures) {
    if (experiment.resource.num_samples() == 0) {
      return Status::InvalidArgument("experiment has no resource samples");
    }
    if (feature >= experiment.resource.values.cols()) {
      return Status::InvalidArgument(StrFormat(
          "resource feature %zu missing: experiment has %zu resource columns",
          feature, experiment.resource.values.cols()));
    }
    raw = experiment.resource.values.Col(feature);
  } else {
    if (experiment.plans.num_observations() == 0) {
      return Status::InvalidArgument("experiment has no plan observations");
    }
    const size_t column = feature - kNumResourceFeatures;
    if (column >= experiment.plans.values.cols()) {
      return Status::InvalidArgument(StrFormat(
          "plan feature %zu missing: experiment has %zu plan columns",
          feature, experiment.plans.values.cols()));
    }
    raw = experiment.plans.values.Col(column);
  }
  for (double& v : raw) v = NormalizeValue(ctx, feature, v);
  return raw;
}

}  // namespace

NormalizationContext ComputeNormalization(const ExperimentCorpus& corpus) {
  NormalizationContext ctx;
  ctx.min.assign(kNumFeatures, 1e300);
  ctx.max.assign(kNumFeatures, -1e300);
  for (const Experiment& e : corpus.experiments()) {
    // Bounded by cols() as well: a malformed (narrow) experiment must not
    // read past its matrix; FeatureValues rejects it later.
    const size_t resource_cols =
        std::min(kNumResourceFeatures, e.resource.values.cols());
    for (size_t f = 0; f < resource_cols; ++f) {
      for (size_t r = 0; r < e.resource.num_samples(); ++r) {
        const double v = e.resource.values(r, f);
        ctx.min[f] = std::min(ctx.min[f], v);
        ctx.max[f] = std::max(ctx.max[f], v);
      }
    }
    const size_t plan_cols = std::min(kNumPlanFeatures, e.plans.values.cols());
    for (size_t f = 0; f < plan_cols; ++f) {
      for (size_t r = 0; r < e.plans.num_observations(); ++r) {
        const double v = e.plans.values(r, f);
        ctx.min[kNumResourceFeatures + f] =
            std::min(ctx.min[kNumResourceFeatures + f], v);
        ctx.max[kNumResourceFeatures + f] =
            std::max(ctx.max[kNumResourceFeatures + f], v);
      }
    }
  }
  for (size_t f = 0; f < kNumFeatures; ++f) {
    if (ctx.min[f] > ctx.max[f]) {
      ctx.min[f] = 0.0;
      ctx.max[f] = 0.0;
    }
  }
  return ctx;
}

double NormalizeValue(const NormalizationContext& ctx, size_t feature,
                      double value) {
  WPRED_CHECK_LT(feature, kNumFeatures);
  const double range = ctx.max[feature] - ctx.min[feature];
  if (range <= 0.0) return 0.0;
  return std::clamp((value - ctx.min[feature]) / range, 0.0, 1.0);
}

Result<Representation> RepresentationByName(const std::string& name) {
  if (name == "MTS") return Representation::kMts;
  if (name == "Hist-FP") return Representation::kHistFp;
  if (name == "Phase-FP") return Representation::kPhaseFp;
  return Status::NotFound("unknown representation: " + name);
}

std::string_view RepresentationName(Representation representation) {
  switch (representation) {
    case Representation::kMts:
      return "MTS";
    case Representation::kHistFp:
      return "Hist-FP";
    case Representation::kPhaseFp:
      return "Phase-FP";
  }
  return "Unknown";
}

Result<Matrix> BuildMts(const Experiment& experiment,
                        const std::vector<size_t>& features,
                        const NormalizationContext& ctx) {
  if (features.empty()) return Status::InvalidArgument("no features selected");
  for (size_t f : features) {
    if (f >= kNumResourceFeatures) {
      return Status::InvalidArgument(
          "MTS representation only supports resource features");
    }
  }
  const size_t n = experiment.resource.num_samples();
  if (n == 0) return Status::InvalidArgument("experiment has no samples");
  Matrix out(n, features.size());
  for (size_t j = 0; j < features.size(); ++j) {
    WPRED_ASSIGN_OR_RETURN(Vector col, FeatureValues(experiment, features[j], ctx));
    out.SetCol(j, col);
  }
  return out;
}

Result<Matrix> BuildHistFp(const Experiment& experiment,
                           const std::vector<size_t>& features,
                           const NormalizationContext& ctx, int bins) {
  if (features.empty()) return Status::InvalidArgument("no features selected");
  if (bins < 2) return Status::InvalidArgument("bins must be >= 2");
  Matrix out(static_cast<size_t>(bins), features.size());
  for (size_t j = 0; j < features.size(); ++j) {
    WPRED_ASSIGN_OR_RETURN(Vector values,
                           FeatureValues(experiment, features[j], ctx));
    Vector hist(static_cast<size_t>(bins), 0.0);
    for (double v : values) {
      const int b = representation_internal::HistFpBin(v, bins);
      hist[static_cast<size_t>(b)] += 1.0 / static_cast<double>(values.size());
    }
    double cum = 0.0;
    for (int b = 0; b < bins; ++b) {
      cum += hist[static_cast<size_t>(b)];
      out(static_cast<size_t>(b), j) = cum;
    }
  }
  return out;
}

Result<Matrix> BuildPhaseFp(const Experiment& experiment,
                            const std::vector<size_t>& features,
                            const NormalizationContext& ctx, int max_phases,
                            const BcpdParams& bcpd) {
  if (features.empty()) return Status::InvalidArgument("no features selected");
  if (max_phases < 1) return Status::InvalidArgument("max_phases must be >= 1");
  constexpr int kStats = 3;  // mean, median, variance
  Matrix out(features.size(), static_cast<size_t>(max_phases * kStats));

  for (size_t j = 0; j < features.size(); ++j) {
    WPRED_ASSIGN_OR_RETURN(Vector values,
                           FeatureValues(experiment, features[j], ctx));
    std::vector<Segment> segments;
    if (features[j] < kNumResourceFeatures) {
      // BCPD phase detection on the time-series.
      WPRED_ASSIGN_OR_RETURN(std::vector<size_t> cps,
                             DetectChangePoints(values, bcpd));
      segments = SegmentsFromChangePoints(values.size(), cps);
    } else {
      // Plan features have a single phase (paper Appendix A).
      segments = {{0, values.size()}};
    }
    // Merge overflow phases into the last representable one.
    if (segments.size() > static_cast<size_t>(max_phases)) {
      segments[max_phases - 1].end = segments.back().end;
      segments.resize(static_cast<size_t>(max_phases));
    }
    for (size_t s = 0; s < segments.size(); ++s) {
      const Vector phase(values.begin() + static_cast<long>(segments[s].begin),
                         values.begin() + static_cast<long>(segments[s].end));
      out(j, s * kStats + 0) = Mean(phase);
      out(j, s * kStats + 1) = Median(phase);
      out(j, s * kStats + 2) = Variance(phase);
    }
  }
  return out;
}

Result<Matrix> BuildRepresentation(Representation representation,
                                   const Experiment& experiment,
                                   const std::vector<size_t>& features,
                                   const NormalizationContext& ctx) {
  switch (representation) {
    case Representation::kMts:
      return BuildMts(experiment, features, ctx);
    case Representation::kHistFp:
      return BuildHistFp(experiment, features, ctx);
    case Representation::kPhaseFp:
      return BuildPhaseFp(experiment, features, ctx);
  }
  return Status::InvalidArgument("unknown representation");
}

}  // namespace wpred
