#include "stream/window.h"

#include <utility>

#include "telemetry/experiment.h"
#include "telemetry/feature_catalog.h"

namespace wpred {

Result<SlidingWindow> SlidingWindow::Create(size_t capacity,
                                            NormalizationContext ctx,
                                            int hist_bins) {
  if (capacity < 2) {
    return Status::InvalidArgument("window capacity must be >= 2 samples");
  }
  if (hist_bins < 2) return Status::InvalidArgument("bins must be >= 2");
  if (ctx.min.size() != kNumFeatures || ctx.max.size() != kNumFeatures) {
    return Status::InvalidArgument(
        "normalisation context does not cover the feature catalog");
  }
  SlidingWindow window;
  window.capacity_ = capacity;
  window.hist_bins_ = hist_bins;
  window.ctx_ = std::move(ctx);
  window.ring_ = Matrix(capacity, kNumResourceFeatures);
  return window;
}

Status SlidingWindow::Push(const Vector& resource_row) {
  if (capacity_ == 0) {
    return Status::FailedPrecondition(
        "window is default-constructed; use SlidingWindow::Create");
  }
  if (resource_row.size() != kNumResourceFeatures) {
    return Status::InvalidArgument(
        "sample row must have kNumResourceFeatures values");
  }
  if (!AllFinite(resource_row)) {
    return Status::InvalidArgument("non-finite values in sample row");
  }
  for (size_t f = 0; f < kNumResourceFeatures; ++f) {
    ring_(head_, f) = resource_row[f];
  }
  head_ = (head_ + 1) % capacity_;
  if (size_ < capacity_) ++size_;
  ++pushed_;
  return Status::OK();
}

Matrix SlidingWindow::Rows() const {
  Matrix out(size_, kNumResourceFeatures);
  // Oldest row first: once full the oldest slot is head_ (the next to be
  // overwritten); while filling it is slot 0.
  const size_t start = size_ == capacity_ ? head_ : 0;
  for (size_t i = 0; i < size_; ++i) {
    const size_t slot = (start + i) % capacity_;
    for (size_t f = 0; f < kNumResourceFeatures; ++f) {
      out(i, f) = ring_(slot, f);
    }
  }
  return out;
}

Result<Matrix> SlidingWindow::HistFp(
    const std::vector<size_t>& features) const {
  if (features.empty()) return Status::InvalidArgument("no features selected");
  for (size_t f : features) {
    if (f >= kNumResourceFeatures) {
      return Status::InvalidArgument(
          "window representations only cover resource features");
    }
  }
  if (size_ == 0) return Status::FailedPrecondition("window is empty");
  Experiment window;
  window.resource.values = Rows();
  return BuildHistFp(window, features, ctx_, hist_bins_);
}

}  // namespace wpred
