#ifndef WPRED_BENCH_BENCH_UTIL_H_
#define WPRED_BENCH_BENCH_UTIL_H_

// Shared helpers for the paper-reproduction bench binaries. Each bench
// regenerates one table or figure of the paper on the simulator substrate
// and prints the measured rows next to the paper's reported values, so the
// reader can check the *shape* (who wins, by what factor) directly.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/string_util.h"
#include "common/table_printer.h"
#include "core/workbench.h"
#include "sim/hardware.h"

namespace wpred::bench {

/// Aborts the bench with a readable message on error (benches have no
/// caller to propagate to).
inline void Require(const Status& status, const char* what) {
  if (!status.ok()) {
    std::fprintf(stderr, "FATAL %s: %s\n", what, status.ToString().c_str());
    std::exit(1);
  }
}

template <typename T>
T RequireOk(Result<T> result, const char* what) {
  Require(result.status(), what);
  return std::move(result).value();
}

/// Prints the bench banner: experiment id, paper reference, and the
/// substitution note.
inline void Banner(const std::string& id, const std::string& claim) {
  std::printf("==============================================================\n");
  std::printf("%s\n", id.c_str());
  std::printf("Paper: %s\n", claim.c_str());
  std::printf("Substrate: wpred discrete-event engine (not the paper's SQL\n");
  std::printf("Server testbed) - compare shapes, not absolute values.\n");
  std::printf("==============================================================\n");
}

/// Simulation defaults shared by benches: 180 simulated seconds sampled
/// every 0.5 s = the paper's 360 resource samples per run.
inline SimConfig BenchSimConfig() {
  SimConfig config;
  config.duration_s = 180.0;
  config.sample_period_s = 0.5;
  return config;
}

/// Shorter runs for benches that need many experiments; keeps 240 samples.
inline SimConfig FastSimConfig() {
  SimConfig config;
  config.duration_s = 120.0;
  config.sample_period_s = 0.5;
  return config;
}

inline std::string F3(double v) { return ToFixed(v, 3); }
inline std::string F1(double v) { return ToFixed(v, 1); }

}  // namespace wpred::bench

#endif  // WPRED_BENCH_BENCH_UTIL_H_
