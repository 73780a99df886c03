#ifndef WPRED_TELEMETRY_SUBSAMPLE_H_
#define WPRED_TELEMETRY_SUBSAMPLE_H_

#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "telemetry/experiment.h"

namespace wpred {

/// Systematic sampling per paper Section 2.1: splits one experiment into
/// `count` sub-experiments, where sub-experiment i takes resource samples
/// i, i+count, i+2·count, ... Each sub-experiment inherits the plan stats and
/// performance summary and gets `subsample_id = i`.
/// Requires count >= 1 and at least `count` resource samples.
Result<std::vector<Experiment>> SystematicSubsample(const Experiment& experiment,
                                                    size_t count);

/// The resource rows of SystematicSubsample's sub-experiments over `n`
/// samples, without building them: entry i is {i, i+count, i+2·count, ...}.
/// Same requirements and errors as SystematicSubsample.
Result<std::vector<std::vector<size_t>>> SystematicSubsampleRows(size_t n,
                                                                 size_t count);

/// Random down-sampling per paper Section 6.2 (data augmentation): draws
/// `count` sub-series of `fraction`·n samples each, without replacement
/// within a sub-series, preserving time order.
Result<std::vector<Experiment>> RandomSubsample(const Experiment& experiment,
                                                size_t count, double fraction,
                                                Rng& rng);

/// Applies SystematicSubsample to every experiment of a corpus and returns
/// the flattened corpus of sub-experiments.
Result<ExperimentCorpus> SubsampleCorpus(const ExperimentCorpus& corpus,
                                         size_t count);

}  // namespace wpred

#endif  // WPRED_TELEMETRY_SUBSAMPLE_H_
