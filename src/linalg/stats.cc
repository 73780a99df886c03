#include "linalg/stats.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace wpred {

double Mean(const Vector& v) {
  if (v.empty()) return 0.0;
  double acc = 0.0;
  for (double x : v) acc += x;
  return acc / static_cast<double>(v.size());
}

namespace {

// Welford's online recurrence for the centred sum of squares. Naive
// sum-of-squares cancels catastrophically when mean² ≫ variance (an
// epoch-timestamp feature has mean ≈ 1e9 and variance ≈ 1, which is 18
// orders of magnitude below mean² — past double precision), and even the
// two-pass form loses digits once the mean itself rounds. Welford keeps a
// running mean and accumulates squared deviations from it, so each term is
// already centred.
double WelfordM2(const Vector& v) {
  double mean = 0.0;
  double m2 = 0.0;
  double count = 0.0;
  for (double x : v) {
    count += 1.0;
    const double delta = x - mean;
    mean += delta / count;
    m2 += delta * (x - mean);
  }
  return m2;
}

}  // namespace

double Variance(const Vector& v) {
  if (v.empty()) return 0.0;
  return WelfordM2(v) / static_cast<double>(v.size());
}

double SampleVariance(const Vector& v) {
  if (v.size() < 2) return 0.0;
  return WelfordM2(v) / static_cast<double>(v.size() - 1);
}

double StdDev(const Vector& v) { return std::sqrt(Variance(v)); }

double Median(const Vector& v) { return Quantile(v, 0.5); }

double Quantile(const Vector& v, double q) {
  if (v.empty()) return 0.0;
  WPRED_CHECK_GE(q, 0.0);
  WPRED_CHECK_LE(q, 1.0);
  // NaN policy: propagate. NaN breaks operator< strict weak ordering, so it
  // must never reach the selection below (that would be UB), and silently
  // dropping it would misreport the sample.
  for (const double x : v) {
    if (std::isnan(x)) return std::numeric_limits<double>::quiet_NaN();
  }
  // Median and friends run in hot per-column loops: a single-quantile query
  // is two O(n) selections, not an O(n log n) full sort.
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const double frac = pos - static_cast<double>(lo);
  Vector work = v;
  std::nth_element(work.begin(), work.begin() + static_cast<long>(lo),
                   work.end());
  const double v_lo = work[lo];
  if (frac == 0.0) return v_lo;
  // The interpolation partner is the smallest element above position lo;
  // after nth_element it is the minimum of the upper partition.
  const double v_hi =
      *std::min_element(work.begin() + static_cast<long>(lo) + 1, work.end());
  return v_lo * (1.0 - frac) + v_hi * frac;
}

double Covariance(const Vector& a, const Vector& b) {
  WPRED_CHECK_EQ(a.size(), b.size());
  if (a.empty()) return 0.0;
  const double ma = Mean(a);
  const double mb = Mean(b);
  double acc = 0.0;
  for (size_t i = 0; i < a.size(); ++i) acc += (a[i] - ma) * (b[i] - mb);
  return acc / static_cast<double>(a.size());
}

double PearsonCorrelation(const Vector& a, const Vector& b) {
  const double sa = StdDev(a);
  const double sb = StdDev(b);
  if (sa == 0.0 || sb == 0.0) return 0.0;
  return Covariance(a, b) / (sa * sb);
}

double Min(const Vector& v) {
  WPRED_CHECK(!v.empty());
  return *std::min_element(v.begin(), v.end());
}

double Max(const Vector& v) {
  WPRED_CHECK(!v.empty());
  return *std::max_element(v.begin(), v.end());
}

ColumnStats ComputeColumnStats(const Matrix& x) {
  ColumnStats stats;
  stats.mean.resize(x.cols());
  stats.stddev.resize(x.cols());
  stats.min.resize(x.cols());
  stats.max.resize(x.cols());
  for (size_t c = 0; c < x.cols(); ++c) {
    const Vector col = x.Col(c);
    stats.mean[c] = Mean(col);
    stats.stddev[c] = StdDev(col);
    stats.min[c] = col.empty() ? 0.0 : Min(col);
    stats.max[c] = col.empty() ? 0.0 : Max(col);
  }
  return stats;
}

void StandardScaler::Fit(const Matrix& x) {
  const ColumnStats stats = ComputeColumnStats(x);
  mean_ = stats.mean;
  stddev_ = stats.stddev;
}

Matrix StandardScaler::Transform(const Matrix& x) const {
  WPRED_CHECK(fitted());
  WPRED_CHECK_EQ(x.cols(), mean_.size());
  Matrix out = x;
  for (size_t r = 0; r < x.rows(); ++r) {
    for (size_t c = 0; c < x.cols(); ++c) {
      out(r, c) = stddev_[c] > 0.0 ? (x(r, c) - mean_[c]) / stddev_[c] : 0.0;
    }
  }
  return out;
}

Vector StandardScaler::TransformRow(const Vector& row) const {
  WPRED_CHECK(fitted());
  WPRED_CHECK_EQ(row.size(), mean_.size());
  Vector out(row.size());
  for (size_t c = 0; c < row.size(); ++c) {
    out[c] = stddev_[c] > 0.0 ? (row[c] - mean_[c]) / stddev_[c] : 0.0;
  }
  return out;
}

Matrix StandardScaler::FitTransform(const Matrix& x) {
  Fit(x);
  return Transform(x);
}

void MinMaxScaler::Fit(const Matrix& x) {
  const ColumnStats stats = ComputeColumnStats(x);
  min_ = stats.min;
  max_ = stats.max;
}

Matrix MinMaxScaler::Transform(const Matrix& x) const {
  WPRED_CHECK(fitted());
  WPRED_CHECK_EQ(x.cols(), min_.size());
  Matrix out = x;
  for (size_t r = 0; r < x.rows(); ++r) {
    for (size_t c = 0; c < x.cols(); ++c) {
      const double range = max_[c] - min_[c];
      double v = range > 0.0 ? (x(r, c) - min_[c]) / range : 0.0;
      // Clamp so values outside the fitted range (unseen data) stay in [0,1].
      out(r, c) = std::clamp(v, 0.0, 1.0);
    }
  }
  return out;
}

Matrix MinMaxScaler::FitTransform(const Matrix& x) {
  Fit(x);
  return Transform(x);
}

void TargetScaler::Fit(const Vector& y) {
  mean_ = Mean(y);
  const double sd = StdDev(y);
  stddev_ = sd > 0.0 ? sd : 1.0;
}

Vector TargetScaler::Transform(const Vector& y) const {
  Vector out(y.size());
  for (size_t i = 0; i < y.size(); ++i) out[i] = (y[i] - mean_) / stddev_;
  return out;
}

double TargetScaler::InverseTransform(double y_scaled) const {
  return y_scaled * stddev_ + mean_;
}

}  // namespace wpred
