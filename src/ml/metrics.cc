#include "ml/metrics.h"

#include <cmath>
#include <limits>

#include "common/check.h"
#include "linalg/stats.h"

namespace wpred {

double Rmse(const Vector& y_true, const Vector& y_pred) {
  WPRED_CHECK_EQ(y_true.size(), y_pred.size());
  WPRED_CHECK(!y_true.empty());
  double acc = 0.0;
  for (size_t i = 0; i < y_true.size(); ++i) {
    const double d = y_true[i] - y_pred[i];
    acc += d * d;
  }
  return std::sqrt(acc / static_cast<double>(y_true.size()));
}

double Nrmse(const Vector& y_true, const Vector& y_pred) {
  const double rmse = Rmse(y_true, y_pred);
  const double range = Max(y_true) - Min(y_true);
  if (range > 0.0) return rmse / range;
  const double mean = std::fabs(Mean(y_true));
  if (mean > 0.0) return rmse / mean;
  // All-zero truth: no range, no mean — NaN, never raw-RMSE units.
  return rmse == 0.0 ? 0.0 : std::numeric_limits<double>::quiet_NaN();
}

MapeResult MapeDetail(const Vector& y_true, const Vector& y_pred) {
  WPRED_CHECK_EQ(y_true.size(), y_pred.size());
  MapeResult result;
  double acc = 0.0;
  for (size_t i = 0; i < y_true.size(); ++i) {
    if (y_true[i] == 0.0) {
      ++result.skipped;
      continue;
    }
    acc += std::fabs((y_true[i] - y_pred[i]) / y_true[i]);
    ++result.used;
  }
  result.mape = result.used > 0
                    ? acc / static_cast<double>(result.used)
                    : std::numeric_limits<double>::quiet_NaN();
  return result;
}

double Mape(const Vector& y_true, const Vector& y_pred) {
  return MapeDetail(y_true, y_pred).mape;
}

double R2(const Vector& y_true, const Vector& y_pred) {
  WPRED_CHECK_EQ(y_true.size(), y_pred.size());
  WPRED_CHECK(!y_true.empty());
  const double mean = Mean(y_true);
  double ss_res = 0.0;
  double ss_tot = 0.0;
  for (size_t i = 0; i < y_true.size(); ++i) {
    ss_res += (y_true[i] - y_pred[i]) * (y_true[i] - y_pred[i]);
    ss_tot += (y_true[i] - mean) * (y_true[i] - mean);
  }
  if (ss_tot == 0.0) return ss_res == 0.0 ? 1.0 : 0.0;
  return 1.0 - ss_res / ss_tot;
}

double Accuracy(const std::vector<int>& y_true,
                const std::vector<int>& y_pred) {
  WPRED_CHECK_EQ(y_true.size(), y_pred.size());
  WPRED_CHECK(!y_true.empty());
  size_t hits = 0;
  for (size_t i = 0; i < y_true.size(); ++i) {
    if (y_true[i] == y_pred[i]) ++hits;
  }
  return static_cast<double>(hits) / static_cast<double>(y_true.size());
}

}  // namespace wpred
