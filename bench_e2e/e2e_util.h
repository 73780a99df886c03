#ifndef WPRED_BENCH_E2E_E2E_UTIL_H_
#define WPRED_BENCH_E2E_E2E_UTIL_H_

// Helpers shared by bench_e2e (the end-to-end benchmark) and bench_diff (its
// report comparator): order statistics, the peak-RSS reader, and the host
// block every report carries so two reports are only compared on a matching
// host.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "obs/json.h"

namespace wpred::bench {

/// Linear-interpolation percentile, q in [0, 1] (rank q·(n-1) between the
/// two nearest order statistics); 0 for an empty sample.
inline double Percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double rank = q * static_cast<double>(samples.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

/// The highest percentile of the ladder 99.9 / 99 / 90 that still has at
/// least ten samples beyond it, so a reported tail is never one outlier.
/// `percent` is 0 when fewer than 100 samples leave no tail to report.
struct Tail {
  double percent = 0.0;
  double value = 0.0;
};

inline Tail TailPercentile(const std::vector<double>& samples) {
  const double n = static_cast<double>(samples.size());
  for (const double percent : {99.9, 99.0, 90.0}) {
    if ((1.0 - percent / 100.0) * n >= 10.0) {
      return {percent, Percentile(samples, percent / 100.0)};
    }
  }
  return {};
}

/// First, second and third quartile by the "exclusive" method — the same
/// numbers as Python's statistics.quantiles(values, n=4), so bench_diff and
/// a Python check agree on every spread. Needs at least two values; with
/// one value all three quartiles are that value.
struct Quartiles {
  double q1 = 0.0;
  double median = 0.0;
  double q3 = 0.0;
};

inline Quartiles ExclusiveQuartiles(std::vector<double> values) {
  if (values.empty()) return {};
  std::sort(values.begin(), values.end());
  const long ld = static_cast<long>(values.size());
  if (ld == 1) return {values[0], values[0], values[0]};
  const long m = ld + 1;
  double out[3];
  for (long i = 1; i <= 3; ++i) {
    long j = i * m / 4;
    j = std::clamp(j, 1L, ld - 1);
    const long delta = i * m - j * 4;
    out[i - 1] = (values[j - 1] * static_cast<double>(4 - delta) +
                  values[j] * static_cast<double>(delta)) /
                 4.0;
  }
  return {out[0], out[1], out[2]};
}

/// Peak resident set size of this process in MiB (VmHWM from
/// /proc/self/status); 0 where the file is unavailable.
inline double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

/// Fixed integer work for the calibration below: an LCG the optimiser
/// cannot fold away.
inline uint64_t CalibrationSpin(uint64_t iterations) {
  uint64_t x = 0x9e3779b97f4a7c15ULL;
  for (uint64_t i = 0; i < iterations; ++i) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
  }
  return x;
}

/// How fast the host runs right now: one fixed integer spin timed on one
/// thread, then on four concurrent threads. 4·T1/T4 is the parallel
/// speed-up the host actually delivers (4.0 on four idle cores, near 1.0
/// when the four threads share one core); T1 tracks single-core speed, so
/// reports from a throttled or contended host stand out.
struct Calibration {
  double one_thread_s = 0.0;
  double four_threads_s = 0.0;
};

inline Calibration MeasureCalibration() {
  constexpr uint64_t kIterations = 40'000'000;
  std::atomic<uint64_t> sink{0};
  Calibration out;
  const auto one_start = std::chrono::steady_clock::now();
  sink += CalibrationSpin(kIterations);
  out.one_thread_s = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - one_start)
                         .count();
  const auto four_start = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&sink] { sink += CalibrationSpin(kIterations); });
  }
  for (std::thread& thread : threads) thread.join();
  out.four_threads_s = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - four_start)
                           .count();
  if (sink.load() == 0) out.four_threads_s = 0.0;  // keeps the spin live
  return out;
}

inline std::string CpuModel() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos && colon + 2 <= line.size()) {
        return line.substr(colon + 2);
      }
    }
  }
  return "unknown";
}

inline std::string IsaMacros() {
  std::string isa;
  const auto add = [&isa](const char* name) {
    if (!isa.empty()) isa += ",";
    isa += name;
  };
#ifdef __SSE4_2__
  add("sse4.2");
#endif
#ifdef __AVX__
  add("avx");
#endif
#ifdef __AVX2__
  add("avx2");
#endif
#ifdef __FMA__
  add("fma");
#endif
#ifdef __AVX512F__
  add("avx512f");
#endif
#ifdef __ARM_NEON
  add("neon");
#endif
  (void)add;
  return isa.empty() ? "baseline" : isa;
}

#ifndef WPRED_BENCH_BUILD_FLAGS
#define WPRED_BENCH_BUILD_FLAGS "unknown"
#endif

/// The report's host block. `fingerprint` joins everything that must match
/// for two reports' timings to be comparable; the calibration ratio is a
/// measurement, so it is recorded beside the fingerprint, not inside it.
inline obs::Json HostJson() {
  const unsigned threads = std::thread::hardware_concurrency();
  const std::string cpu = CpuModel();
  const std::string compiler = __VERSION__;
  const std::string flags = WPRED_BENCH_BUILD_FLAGS;
  const std::string isa = IsaMacros();
  obs::Json host = obs::Json::Object();
  host.Set("hardware_threads", static_cast<int>(threads));
  host.Set("cpu_model", cpu);
  host.Set("compiler", compiler);
  host.Set("build_flags", flags);
  host.Set("isa", isa);
  const Calibration calibration = MeasureCalibration();
  host.Set("calibration_one_thread_s", calibration.one_thread_s);
  host.Set("calibration_four_threads_s", calibration.four_threads_s);
  host.Set("parallel_calibration_1v4",
           calibration.four_threads_s > 0.0
               ? 4.0 * calibration.one_thread_s / calibration.four_threads_s
               : 0.0);
  host.Set("fingerprint", std::to_string(threads) + "|" + cpu + "|" +
                              compiler + "|" + flags + "|" + isa);
  return host;
}

}  // namespace wpred::bench

#endif  // WPRED_BENCH_E2E_E2E_UTIL_H_
