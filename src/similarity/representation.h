#ifndef WPRED_SIMILARITY_REPRESENTATION_H_
#define WPRED_SIMILARITY_REPRESENTATION_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "similarity/bcpd.h"
#include "telemetry/experiment.h"
#include "telemetry/feature_catalog.h"

namespace wpred {

/// Per-feature min/max over a corpus; all representations normalise feature
/// values into [0, 1] with a SHARED context so workloads are comparable
/// (paper Section 4.3 / 5.2).
struct NormalizationContext {
  Vector min;  // size kNumFeatures
  Vector max;
};

/// Computes the shared normalisation over every experiment in the corpus
/// (resource features over all samples, plan features over all plan
/// observations).
NormalizationContext ComputeNormalization(const ExperimentCorpus& corpus);

/// Clamped min-max normalisation of one value of catalog feature `feature`.
double NormalizeValue(const NormalizationContext& ctx, size_t feature,
                      double value);

/// The three data representations of paper Section 5.1.1.
enum class Representation { kMts, kHistFp, kPhaseFp };

Result<Representation> RepresentationByName(const std::string& name);
std::string_view RepresentationName(Representation representation);

/// Raw multivariate time-series representation: rows = time samples,
/// columns = the selected features (resource features only — plan
/// statistics are not a time-series; passing one is an error).
Result<Matrix> BuildMts(const Experiment& experiment,
                        const std::vector<size_t>& features,
                        const NormalizationContext& ctx);

/// Histogram-based fingerprint (Hist-FP, paper Appendix A): per feature, an
/// equi-width cumulative relative-frequency histogram of its normalised
/// values (resource features over time samples, plan features over plan
/// observations). rows = bins, columns = features. The last bin is always 1.
Result<Matrix> BuildHistFp(const Experiment& experiment,
                           const std::vector<size_t>& features,
                           const NormalizationContext& ctx, int bins = 10);

/// Phase-level statistical fingerprint (Phase-FP): BCPD segments each
/// resource feature's normalised series into phases; each phase contributes
/// mean/median/variance. Plan features have a single phase. Phases beyond
/// `max_phases` merge into the last phase; missing phases zero-pad. The 3-D
/// fingerprint (features × phases × 3 stats) is flattened to
/// rows = features, columns = max_phases·3.
Result<Matrix> BuildPhaseFp(const Experiment& experiment,
                            const std::vector<size_t>& features,
                            const NormalizationContext& ctx,
                            int max_phases = 4, const BcpdParams& bcpd = {});

/// Builds the chosen representation with its default knobs.
Result<Matrix> BuildRepresentation(Representation representation,
                                   const Experiment& experiment,
                                   const std::vector<size_t>& features,
                                   const NormalizationContext& ctx);

namespace representation_internal {

/// Equi-width histogram bin of one normalised value: floor(v·bins) with
/// both edges clamped into range. The upper-edge clamp is load-bearing — a
/// value exactly at the feature max normalises to 1.0 and floor(1.0·bins)
/// is the out-of-range bin `bins`; it must land in the last bin, bins-1.
/// Both edges clamp in DOUBLE space, before the int conversion: a value
/// far outside [0, 1] (streaming min/max drift before a window refresh, or
/// the similarity sketches' frozen value frame after appends) would make
/// `static_cast<int>(v * bins)` undefined behaviour once v·bins leaves
/// int's range, so a post-cast clamp cannot be relied on. NaN also pins to
/// bin 0 instead of an undefined conversion. BuildHistFp and the tier-0
/// similarity sketches (similarity/sketch.h) both route through this
/// helper, so the edge policy lives in exactly one place.
inline int HistFpBin(double v, int bins) {
  if (!(v > 0.0)) return 0;        // lower edge, arbitrarily far, and NaN
  if (v >= 1.0) return bins - 1;   // upper edge, arbitrarily far, and +inf
  const int b = static_cast<int>(v * static_cast<double>(bins));
  // v < 1 can still round v·bins up to exactly `bins` for large bin
  // counts; keep the in-range clamp for that last ulp.
  return b > bins - 1 ? bins - 1 : b;
}

}  // namespace representation_internal

}  // namespace wpred

#endif  // WPRED_SIMILARITY_REPRESENTATION_H_
