#ifndef WPRED_ML_CROSS_VALIDATION_H_
#define WPRED_ML_CROSS_VALIDATION_H_

#include <vector>

#include "common/rng.h"
#include "common/status.h"

namespace wpred {

/// One train/test index split.
struct FoldSplit {
  std::vector<size_t> train;
  std::vector<size_t> test;
};

/// Shuffled k-fold splits of [0, n). Every index appears in exactly one test
/// fold; fold sizes differ by at most one. Requires 2 <= k <= n.
Result<std::vector<FoldSplit>> KFoldSplits(size_t n, int k, Rng& rng);

}  // namespace wpred

#endif  // WPRED_ML_CROSS_VALIDATION_H_
