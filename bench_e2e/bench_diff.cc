// bench_diff — compares two directories of bench_e2e reports (written with
// --json) using the bounds declared in BENCHMARK.json.
//
//   bench_diff [--benchmark BENCHMARK.json] BASE_DIR NEW_DIR
//
// For every (end-to-end metric, workload) pair it prints each side's
// median, quartiles and spread (interquartile range over median, by the
// same "exclusive" quartiles as Python's statistics.quantiles) and a
// verdict:
//   unresolved  either side's spread is wider than the metric's bound (and
//               not every NEW run beats every BASE run);
//   worse       NEW's median is worse than BASE's by more than the bound;
//   better      NEW's median is better by more than the bound, or every
//               NEW run beats every BASE run;
//   same        otherwise.
// Per-layer metrics from --trace reports are printed for information only.
// Deterministic fields of reports with the same (workload, seed, trace) must
// match exactly. When the two sides' host fingerprints differ, no gated
// verdict is given. Exit code: 0 when nothing is worse and every
// deterministic field matches, 1 otherwise, 2 on a usage or input error.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "e2e_util.h"
#include "obs/json.h"

namespace wpred::bench {
namespace {

[[noreturn]] void Fail(const std::string& message) {
  std::fprintf(stderr, "bench_diff: %s\n", message.c_str());
  std::exit(2);
}

obs::Json ReadJson(const std::filesystem::path& path) {
  std::ifstream in(path);
  if (!in) Fail("cannot read " + path.string());
  std::stringstream text;
  text << in.rdbuf();
  Result<obs::Json> parsed = obs::Json::Parse(text.str());
  if (!parsed.ok()) {
    Fail(path.string() + ": " + parsed.status().ToString());
  }
  return std::move(parsed).value();
}

struct EndToEndSpec {
  std::string name;
  std::string unit;
  bool higher_is_better = false;
  double bound = 0.0;
};

struct Side {
  std::vector<obs::Json> reports;
  std::set<std::string> fingerprints;
};

Side LoadSide(const std::string& dir) {
  if (!std::filesystem::is_directory(dir)) Fail(dir + " is not a directory");
  std::vector<std::filesystem::path> paths;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.is_regular_file() && entry.path().extension() == ".json") {
      paths.push_back(entry.path());
    }
  }
  std::sort(paths.begin(), paths.end());
  Side side;
  for (const auto& path : paths) {
    obs::Json report = ReadJson(path);
    if (report.type() != obs::Json::Type::kObject ||
        report.Get("schema").AsString() != "wpred.bench_e2e/1") {
      continue;
    }
    side.fingerprints.insert(report.Get("host").Get("fingerprint").AsString());
    side.reports.push_back(std::move(report));
  }
  if (side.reports.empty()) Fail("no bench_e2e reports in " + dir);
  return side;
}

/// Values of `metric` over one side's reports of `workload` (traced or not).
std::vector<double> Values(const Side& side, const std::string& workload,
                           bool trace, const std::string& metric) {
  std::vector<double> values;
  for (const obs::Json& report : side.reports) {
    if (report.Get("workload").AsString() != workload ||
        report.Get("trace").AsBool() != trace) {
      continue;
    }
    const obs::Json& m = report.Get("metrics").Get(metric);
    if (!m.is_null()) values.push_back(m.Get("value").AsNumber());
  }
  return values;
}

double Spread(const Quartiles& q) {
  return q.median != 0.0 ? (q.q3 - q.q1) / std::fabs(q.median) : 0.0;
}

std::string Describe(const std::vector<double>& values, const Quartiles& q) {
  char buffer[128];
  std::snprintf(buffer, sizeof(buffer), "%.6g [%.6g, %.6g] sp=%.3f n=%zu",
                q.median, q.q1, q.q3, Spread(q), values.size());
  return buffer;
}

int Run(const std::string& benchmark_path, const std::string& base_dir,
        const std::string& new_dir) {
  const obs::Json benchmark = ReadJson(benchmark_path);
  std::vector<EndToEndSpec> end_to_end;
  for (const obs::Json& m : benchmark.Get("end_to_end").items()) {
    end_to_end.push_back({m.Get("name").AsString(), m.Get("unit").AsString(),
                          m.Get("better").AsString() == "higher",
                          m.Get("bound").AsNumber()});
  }
  std::vector<std::string> workloads;
  for (const obs::Json& w : benchmark.Get("workloads").items()) {
    workloads.push_back(w.Get("name").AsString());
  }

  const Side base = LoadSide(base_dir);
  const Side fresh = LoadSide(new_dir);
  const bool gated = base.fingerprints.size() == 1 &&
                     base.fingerprints == fresh.fingerprints;
  if (!gated) {
    std::printf("host fingerprints differ or are mixed: verdicts are "
                "ungated\n");
  }

  bool regression = false;
  std::printf("%-10s %-16s %-44s %-44s %s\n", "workload", "metric",
              "base median [q1, q3] spread", "new median [q1, q3] spread",
              "verdict");
  for (const std::string& workload : workloads) {
    for (const EndToEndSpec& spec : end_to_end) {
      const std::vector<double> a = Values(base, workload, false, spec.name);
      const std::vector<double> b = Values(fresh, workload, false, spec.name);
      if (a.empty() || b.empty()) continue;
      const Quartiles qa = ExclusiveQuartiles(a);
      const Quartiles qb = ExclusiveQuartiles(b);
      // Positive when NEW is worse, as a share of BASE's median.
      const double worse =
          (spec.higher_is_better ? qa.median - qb.median
                                 : qb.median - qa.median) /
          std::fabs(qa.median);
      const auto better_run = [&spec](double x, double y) {
        return spec.higher_is_better ? x > y : x < y;
      };
      bool all_better = true;
      for (double x : b) {
        for (double y : a) all_better = all_better && better_run(x, y);
      }
      std::string verdict;
      if (!gated) {
        verdict = "ungated";
      } else if (Spread(qa) > spec.bound || Spread(qb) > spec.bound) {
        verdict = all_better ? "better" : "unresolved";
      } else if (worse > spec.bound) {
        verdict = "worse";
        regression = true;
      } else if (-worse > spec.bound || all_better) {
        verdict = "better";
      } else {
        verdict = "same";
      }
      char change[48];
      std::snprintf(change, sizeof(change), " (gain %+.1f%%, bound %.0f%%)",
                    -100.0 * worse, 100.0 * spec.bound);
      std::printf("%-10s %-16s %-44s %-44s %s%s\n", workload.c_str(),
                  spec.name.c_str(), Describe(a, qa).c_str(),
                  Describe(b, qb).c_str(), verdict.c_str(), change);
    }
  }

  for (const std::string& workload : workloads) {
    bool header = false;
    for (const obs::Json& m : benchmark.Get("per_layer").items()) {
      const std::string name = m.Get("name").AsString();
      const std::vector<double> a = Values(base, workload, true, name);
      const std::vector<double> b = Values(fresh, workload, true, name);
      if (a.empty() || b.empty()) continue;
      if (!header) {
        std::printf("\nper-layer (traced runs, information only): %s\n",
                    workload.c_str());
        header = true;
      }
      std::printf("  %-34s %14.6g -> %-14.6g %s\n", name.c_str(),
                  ExclusiveQuartiles(a).median, ExclusiveQuartiles(b).median,
                  m.Get("unit").AsString().c_str());
    }
  }

  // Deterministic fields: reports of one (workload, seed, trace) must agree.
  std::map<std::tuple<std::string, double, bool>, const obs::Json*> base_index;
  for (const obs::Json& report : base.reports) {
    base_index[{report.Get("workload").AsString(),
                report.Get("seed").AsNumber(), report.Get("trace").AsBool()}] =
        &report;
  }
  size_t compared = 0;
  bool mismatch = false;
  for (const obs::Json& report : fresh.reports) {
    const auto it = base_index.find({report.Get("workload").AsString(),
                                     report.Get("seed").AsNumber(),
                                     report.Get("trace").AsBool()});
    if (it == base_index.end()) continue;
    ++compared;
    const obs::Json& want = it->second->Get("deterministic");
    const obs::Json& got = report.Get("deterministic");
    std::set<std::string> names;
    for (const auto& [name, value] : want.fields()) names.insert(name);
    for (const auto& [name, value] : got.fields()) names.insert(name);
    for (const std::string& name : names) {
      if (want.Get(name).Dump() != got.Get(name).Dump()) {
        mismatch = true;
        std::printf("DETERMINISTIC MISMATCH %s seed %.0f: %s %s != %s\n",
                    report.Get("workload").AsString().c_str(),
                    report.Get("seed").AsNumber(), name.c_str(),
                    want.Get(name).Dump().c_str(),
                    got.Get(name).Dump().c_str());
      }
    }
  }
  std::printf("\ndeterministic fields: %zu report pair(s) compared, %s\n",
              compared, mismatch ? "MISMATCH" : "identical");
  return regression || mismatch ? 1 : 0;
}

}  // namespace
}  // namespace wpred::bench

int main(int argc, char** argv) {
  std::string benchmark = "BENCHMARK.json";
  std::vector<std::string> dirs;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--benchmark" && i + 1 < argc) {
      benchmark = argv[++i];
    } else if (arg.rfind("--benchmark=", 0) == 0) {
      benchmark = arg.substr(12);
    } else {
      dirs.push_back(arg);
    }
  }
  if (dirs.size() != 2) {
    std::fprintf(stderr,
                 "usage: bench_diff [--benchmark BENCHMARK.json] BASE_DIR "
                 "NEW_DIR\n");
    return 2;
  }
  return wpred::bench::Run(benchmark, dirs[0], dirs[1]);
}
