#include "telemetry/subsample.h"

#include <algorithm>

namespace wpred {
namespace {

Experiment WithResourceRows(const Experiment& base,
                            const std::vector<size_t>& rows, int subsample_id) {
  Experiment out = base;
  out.subsample_id = subsample_id;
  out.resource.values = base.resource.values.SelectRows(rows);
  return out;
}

}  // namespace

Result<std::vector<std::vector<size_t>>> SystematicSubsampleRows(size_t n,
                                                                 size_t count) {
  if (count == 0) return Status::InvalidArgument("count must be >= 1");
  if (n < count) {
    return Status::InvalidArgument("fewer resource samples than sub-experiments");
  }
  std::vector<std::vector<size_t>> out(count);
  for (size_t i = 0; i < count; ++i) {
    for (size_t r = i; r < n; r += count) out[i].push_back(r);
  }
  return out;
}

Result<std::vector<Experiment>> SystematicSubsample(const Experiment& experiment,
                                                    size_t count) {
  WPRED_ASSIGN_OR_RETURN(
      const std::vector<std::vector<size_t>> rows,
      SystematicSubsampleRows(experiment.resource.num_samples(), count));
  std::vector<Experiment> out;
  out.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    out.push_back(WithResourceRows(experiment, rows[i], static_cast<int>(i)));
  }
  return out;
}

Result<std::vector<Experiment>> RandomSubsample(const Experiment& experiment,
                                                size_t count, double fraction,
                                                Rng& rng) {
  if (count == 0) return Status::InvalidArgument("count must be >= 1");
  if (fraction <= 0.0 || fraction > 1.0) {
    return Status::InvalidArgument("fraction must be in (0, 1]");
  }
  const size_t n = experiment.resource.num_samples();
  if (n == 0) {
    return Status::InvalidArgument("experiment has no resource samples");
  }
  // fraction <= 1 and n >= 1 give take in [1, n] by construction.
  const size_t take = std::max<size_t>(1, static_cast<size_t>(fraction * n));

  std::vector<Experiment> out;
  out.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    std::vector<size_t> perm = rng.Permutation(n);
    perm.resize(take);
    std::sort(perm.begin(), perm.end());  // preserve time order
    out.push_back(WithResourceRows(experiment, perm, static_cast<int>(i)));
  }
  return out;
}

Result<ExperimentCorpus> SubsampleCorpus(const ExperimentCorpus& corpus,
                                         size_t count) {
  ExperimentCorpus out;
  for (const Experiment& e : corpus.experiments()) {
    WPRED_ASSIGN_OR_RETURN(std::vector<Experiment> subs,
                           SystematicSubsample(e, count));
    for (Experiment& sub : subs) out.Add(std::move(sub));
  }
  return out;
}

}  // namespace wpred
