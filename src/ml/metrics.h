#ifndef WPRED_ML_METRICS_H_
#define WPRED_ML_METRICS_H_

#include <vector>

#include "linalg/matrix.h"

namespace wpred {

/// Root mean squared error.
double Rmse(const Vector& y_true, const Vector& y_pred);

/// NRMSE per the paper (Section 6.2): RMSE normalised by the range of the
/// observed values ("deviation from the actual observed throughput value
/// ranges"). Falls back to normalising by |mean| when the range is zero
/// (constant non-zero truth). When the truth is degenerate in both senses —
/// every y_true is zero — there is no scale to normalise by, so the result
/// is NaN rather than a raw-RMSE value masquerading as a normalised one.
double Nrmse(const Vector& y_true, const Vector& y_pred);

/// Mape() plus the bookkeeping that keeps a skip-based metric honest: how
/// many entries were actually compared and how many were skipped because
/// y_true was zero (percentage error is undefined there).
struct MapeResult {
  /// Mean |y_true - y_pred| / |y_true| over used entries; NaN when none.
  double mape = 0.0;
  size_t used = 0;
  size_t skipped = 0;
};
MapeResult MapeDetail(const Vector& y_true, const Vector& y_pred);

/// Mean absolute percentage error (fractional, e.g. 0.206 for 20.6%).
/// Entries with y_true == 0 are skipped; if that skips *every* entry the
/// result is NaN — never 0.0, which would report a perfect score for
/// predictions that were not evaluated at all (e.g. under PR 1 dropout
/// faults). Use MapeDetail() to surface the skip count.
double Mape(const Vector& y_true, const Vector& y_pred);

/// Coefficient of determination; 1 for a perfect fit, <= 0 for fits no
/// better than the mean.
double R2(const Vector& y_true, const Vector& y_pred);

/// Fraction of matching labels.
double Accuracy(const std::vector<int>& y_true, const std::vector<int>& y_pred);

}  // namespace wpred

#endif  // WPRED_ML_METRICS_H_
