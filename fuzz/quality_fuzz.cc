// Fuzz harness for wpred::PassesUntouched, the read path's copy-free quality
// screen. The bytes become a small Experiment (0-64 samples, 0-7 resource
// columns, a few plan rows; values drawn from finite numbers, zeros, repeats,
// NaN and +-Inf), a QualityPolicy and a feature subset. Whenever the screen
// passes, the whole-experiment gate must agree that nothing needs doing:
// RepairExperiment on a copy succeeds, leaves every resource and plan double
// bit-unchanged, and reports none of the features unusable. A screen that
// declines is always fine.
//
// Built two ways (fuzz/CMakeLists.txt): with clang as a libFuzzer target,
// elsewhere with the standalone driver that replays corpus files.

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <vector>

#include "telemetry/feature_catalog.h"
#include "telemetry/quality.h"

namespace {

// Reads the input front to back; yields zeros once it runs out.
class ByteReader {
 public:
  ByteReader(const uint8_t* data, size_t size) : data_(data), size_(size) {}
  uint8_t Next() { return pos_ < size_ ? data_[pos_++] : 0; }

 private:
  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
};

// One telemetry value: mostly finite, with zeros, repeats of the previous
// sample (stuck runs), NaN and +-Inf mixed in.
double NextValue(ByteReader& in, double previous) {
  const uint8_t b = in.Next();
  switch (b % 8) {
    case 0:
      return 0.0;
    case 1:
      return std::numeric_limits<double>::quiet_NaN();
    case 2:
      return std::numeric_limits<double>::infinity();
    case 3:
      return -std::numeric_limits<double>::infinity();
    case 4:
    case 5:
      return previous;
    default:
      return (static_cast<double>(b) - 128.0) / 4.0;
  }
}

// Fills column by column, so a repeat continues the column's run.
void Fill(wpred::Matrix& m, ByteReader& in) {
  for (size_t c = 0; c < m.cols(); ++c) {
    for (size_t r = 0; r < m.rows(); ++r) {
      m(r, c) = NextValue(in, r > 0 ? m(r - 1, c) : 1.0);
    }
  }
}

bool SameBits(const wpred::Matrix& a, const wpred::Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::equal(a.data().begin(), a.data().end(), b.data().begin(),
                    [](double x, double y) {
                      return std::bit_cast<uint64_t>(x) ==
                             std::bit_cast<uint64_t>(y);
                    });
}

[[noreturn]] void Fail(const char* what) {
  std::fprintf(stderr, "quality_fuzz: screen passed but %s\n", what);
  std::abort();
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  ByteReader in(data, size);
  const size_t rows = in.Next() % 65;
  const size_t cols = in.Next() % 8;
  const size_t plan_rows = in.Next() % 4;

  wpred::QualityPolicy policy;
  policy.min_samples = in.Next() % 12;
  policy.max_dead_features = in.Next() % 8;
  policy.stuck_run_fraction = static_cast<double>(1 + in.Next() % 10) / 10.0;
  policy.max_bad_fraction = static_cast<double>(in.Next() % 11) / 10.0;

  std::vector<size_t> features;
  for (size_t f = 0; f < wpred::kNumFeatures; f += 8) {
    const uint8_t mask = in.Next();
    for (size_t bit = 0; bit < 8 && f + bit < wpred::kNumFeatures; ++bit) {
      if ((mask >> bit) & 1) features.push_back(f + bit);
    }
  }

  wpred::Experiment e;
  e.perf.throughput_tps = NextValue(in, 100.0);
  e.perf.mean_latency_ms = NextValue(in, 5.0);
  e.resource.values = wpred::Matrix(rows, cols);
  Fill(e.resource.values, in);
  e.plans.values = wpred::Matrix(plan_rows, wpred::kNumPlanFeatures);
  Fill(e.plans.values, in);

  if (!wpred::PassesUntouched(e, policy, features)) return 0;

  wpred::Experiment copy = e;
  const auto report = wpred::RepairExperiment(copy, policy);
  if (!report.ok()) Fail("RepairExperiment failed");
  if (!SameBits(copy.resource.values, e.resource.values)) {
    Fail("RepairExperiment wrote a resource value");
  }
  if (!SameBits(copy.plans.values, e.plans.values)) {
    Fail("RepairExperiment wrote a plan value");
  }
  for (size_t f : report->UnusableFeatures()) {
    if (std::find(features.begin(), features.end(), f) != features.end()) {
      Fail("a screened feature is unusable");
    }
  }
  return 0;
}
