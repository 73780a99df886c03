#ifndef WPRED_OBS_METRICS_H_
#define WPRED_OBS_METRICS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/annotations.h"
#include "common/mutex.h"

// Process-wide metrics registry: counters, gauges, and fixed log-scale-bin
// histograms, all safe to record from any thread (including PR 2's pool
// workers). Zero dependencies beyond the standard library.
//
// The overhead contract (DESIGN.md §8): with metrics disabled, every
// instrumentation hook in the hot layers reduces to one relaxed load of one
// atomic bool plus a branch. The WPRED_COUNT_ADD / WPRED_HIST_RECORD /
// WPRED_GAUGE_SET macros additionally cache the registry lookup in a
// function-local static, so the enabled path in a hot loop is one atomic
// add — never a map lookup under the registry mutex.
//
// Instruments have stable addresses for the life of the process:
// MetricsRegistry::ResetAll() zeroes values but never invalidates a pointer
// obtained from GetCounter/GetGauge/GetHistogram.

namespace wpred::obs {

/// Global on/off switch. Initialised from the WPRED_METRICS environment
/// variable ("1"/"true"/"on"/"yes" enable, ""/"0"/"false"/"off"/"no"
/// disable, anything else warns on stderr and stays disabled);
/// SetMetricsEnabled overrides it for the rest of the process. Reading is a
/// single relaxed atomic load.
bool MetricsEnabled();
void SetMetricsEnabled(bool enabled);

namespace internal {

/// Parse outcome for a WPRED_METRICS-style boolean env value; exposed so the
/// rejection path is unit-testable without touching the real environment.
struct EnvBoolParse {
  bool enabled = false;
  bool rejected = false;  // value present but not a recognised boolean
};

/// nullptr / "" / "0" / "false" / "off" / "no" → disabled; "1" / "true" /
/// "on" / "yes" → enabled (ASCII case-insensitive). Anything else →
/// {false, rejected=true} so the caller can warn instead of guessing.
EnvBoolParse ParseMetricsEnv(const char* value);

}  // namespace internal

/// Monotonic event counter.
class Counter {
 public:
  void Add(uint64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// Last-value-wins double gauge (stored as IEEE-754 bits in an atomic).
class Gauge {
 public:
  void Set(double v);
  double value() const;
  void Reset();

 private:
  std::atomic<uint64_t> bits_{0};  // bit pattern of +0.0
};

/// Histogram with fixed log-scale bins. Bin i covers
/// (kMinBound * 2^(i-1), kMinBound * 2^i]; bin 0 holds everything
/// <= kMinBound (including zero and negatives) and the last bin is the
/// overflow. With kMinBound = 1 µs the bins span 1 µs .. ~9 min, which
/// covers every duration this codebase times.
class Histogram {
 public:
  static constexpr int kNumBins = 40;
  static constexpr double kMinBound = 1e-6;

  /// Inclusive upper bound of `bin`; +inf for the overflow bin.
  static double BinUpperBound(int bin);
  /// The bin a value lands in.
  static int BinIndex(double v);

  void Record(double v);

  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const;
  /// Min/max of recorded values; NaN before the first Record.
  double min() const;
  double max() const;
  std::array<uint64_t, kNumBins> bins() const;

  void Reset();

 private:
  std::atomic<uint64_t> bins_[kNumBins] = {};
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_bits_{0};
  std::atomic<uint64_t> min_bits_;  // initialised in Reset()/ctor
  std::atomic<uint64_t> max_bits_;

 public:
  Histogram() { Reset(); }
};

/// Name -> instrument map. Get* creates on first use; instruments live (at a
/// stable address) until process exit.
class MetricsRegistry {
 public:
  static MetricsRegistry& Global();

  Counter& GetCounter(std::string_view name);
  Gauge& GetGauge(std::string_view name);
  Histogram& GetHistogram(std::string_view name);

  /// Zeroes every instrument (and the span registry is reset separately);
  /// addresses handed out earlier stay valid.
  void ResetAll();

  std::vector<std::pair<std::string, uint64_t>> CounterSnapshot() const;
  std::vector<std::pair<std::string, double>> GaugeSnapshot() const;
  std::vector<std::pair<std::string, const Histogram*>> HistogramSnapshot()
      const;

 private:
  MetricsRegistry() = default;

  // mu_ guards the maps only. The instruments the maps point to are all
  // relaxed atomics updated outside the lock — they are counters, not
  // publication points, so no WPRED_ATOMIC_PUBLISHED and no ordering
  // stronger than relaxed is needed (DESIGN.md §8).
  mutable Mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_
      WPRED_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_
      WPRED_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_
      WPRED_GUARDED_BY(mu_);
};

}  // namespace wpred::obs

// Hot-path hooks: disabled => one atomic-bool branch; enabled => one atomic
// op on an instrument resolved once per call site (function-local static).
#define WPRED_COUNT_ADD(name, n)                                         \
  do {                                                                   \
    if (::wpred::obs::MetricsEnabled()) {                                \
      static ::wpred::obs::Counter& wpred_obs_counter_ =                 \
          ::wpred::obs::MetricsRegistry::Global().GetCounter(name);      \
      wpred_obs_counter_.Add(n);                                         \
    }                                                                    \
  } while (0)

#define WPRED_HIST_RECORD(name, v)                                       \
  do {                                                                   \
    if (::wpred::obs::MetricsEnabled()) {                                \
      static ::wpred::obs::Histogram& wpred_obs_histogram_ =             \
          ::wpred::obs::MetricsRegistry::Global().GetHistogram(name);    \
      wpred_obs_histogram_.Record(v);                                    \
    }                                                                    \
  } while (0)

#define WPRED_GAUGE_SET(name, v)                                         \
  do {                                                                   \
    if (::wpred::obs::MetricsEnabled()) {                                \
      static ::wpred::obs::Gauge& wpred_obs_gauge_ =                     \
          ::wpred::obs::MetricsRegistry::Global().GetGauge(name);        \
      wpred_obs_gauge_.Set(v);                                           \
    }                                                                    \
  } while (0)

#endif  // WPRED_OBS_METRICS_H_
