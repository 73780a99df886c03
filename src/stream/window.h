#ifndef WPRED_STREAM_SLIDING_WINDOW_H_
#define WPRED_STREAM_SLIDING_WINDOW_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/status.h"
#include "linalg/matrix.h"
#include "similarity/representation.h"

// Sliding telemetry window (DESIGN.md §13).
//
// A live workload's representation tracks its last W samples. The window is
// a fixed ring of raw sample rows: Push overwrites one row in O(features),
// and every representation comes from the batch builders over Rows(), so
// the stream and the batch pipeline share one implementation of each.

namespace wpred {

/// Fixed-capacity ring of resource-sample rows. Single-writer, like
/// everything in the streaming layer: Push must not race the accessors.
class SlidingWindow {
 public:
  /// Default-constructed windows are empty placeholders (capacity 0, every
  /// Push fails) so owners like IncrementalIngest can hold one by value and
  /// move a Create() result in.
  SlidingWindow() = default;

  /// `capacity` >= 2 rows of kNumResourceFeatures; `ctx` is the FROZEN
  /// normalisation of the fitted pipeline the stream feeds (windows never
  /// re-derive normalisation — a drifting context would silently re-scale
  /// history); `hist_bins` >= 2 matches the BuildHistFp default of 10.
  static Result<SlidingWindow> Create(size_t capacity,
                                      NormalizationContext ctx,
                                      int hist_bins = 10);

  /// Appends one sample row (size kNumResourceFeatures, all finite),
  /// overwriting the oldest once full. O(features); allocates nothing.
  Status Push(const Vector& resource_row);

  /// Rows currently held (== capacity once warm).
  size_t size() const { return size_; }
  size_t capacity() const { return capacity_; }
  bool full() const { return size_ == capacity_; }
  /// Total rows ever pushed (eviction does not decrement).
  uint64_t samples_pushed() const { return pushed_; }
  int hist_bins() const { return hist_bins_; }
  const NormalizationContext& context() const { return ctx_; }

  /// The window contents, oldest first — the series a batch rebuild would
  /// see. O(window).
  Matrix Rows() const;

  /// BuildHistFp over Rows() at hist_bins(), for `features` (resource
  /// features only — a streaming window carries resource telemetry; plan
  /// features enter through the refit corpus). O(window · features).
  Result<Matrix> HistFp(const std::vector<size_t>& features) const;

 private:
  size_t capacity_ = 0;
  int hist_bins_ = 0;
  NormalizationContext ctx_;

  Matrix ring_;        // capacity × kNumResourceFeatures
  size_t head_ = 0;    // next slot to write
  size_t size_ = 0;
  uint64_t pushed_ = 0;
};

}  // namespace wpred

#endif  // WPRED_STREAM_SLIDING_WINDOW_H_
