#include "ml/cross_validation.h"

namespace wpred {

Result<std::vector<FoldSplit>> KFoldSplits(size_t n, int k, Rng& rng) {
  if (k < 2) return Status::InvalidArgument("k must be >= 2");
  if (static_cast<size_t>(k) > n) {
    return Status::InvalidArgument("k exceeds the number of observations");
  }
  const std::vector<size_t> perm = rng.Permutation(n);
  std::vector<FoldSplit> folds(static_cast<size_t>(k));
  for (size_t i = 0; i < n; ++i) {
    folds[i % static_cast<size_t>(k)].test.push_back(perm[i]);
  }
  for (int f = 0; f < k; ++f) {
    for (int other = 0; other < k; ++other) {
      if (other == f) continue;
      folds[f].train.insert(folds[f].train.end(), folds[other].test.begin(),
                            folds[other].test.end());
    }
  }
  return folds;
}

}  // namespace wpred
