// Machine-readable benchmark results.
//
// Every bench binary ends with RC11_BENCH_MAIN("<name>") instead of
// BENCHMARK_MAIN(). It runs google-benchmark with a reporter that mirrors
// the console output and additionally captures, for every benchmark run:
//
//   * real_ms_per_iter — wall time per iteration;
//   * every user counter attached via state.counters (states, transitions,
//     peak_seen_bytes, ...);
//   * derived throughput: states_per_sec / transitions_per_sec whenever the
//     corresponding counters are present.
//
// After the run the registry is written to BENCH_<name>.json in the
// working directory, so CI can upload the files as artifacts and the perf
// trajectory across PRs has comparable data points (see
// tools/check_bench_regression.py for the smoke threshold).
#pragma once

#include <benchmark/benchmark.h>

#include <cstddef>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "mc/statespace.hpp"
#include "obs/telemetry.hpp"

namespace rc11bench {

inline std::map<std::string, std::map<std::string, double>>& registry() {
  static std::map<std::string, std::map<std::string, double>> r;
  return r;
}

inline void record(const std::string& bench, const std::string& key,
                   double value) {
  registry()[bench][key] = value;
}

/// Attaches a run's phase profile to the benchmark's user counters as
/// phase_ns_<name> (exclusive nanoseconds) and phase_share_<name>
/// (fraction of instrumented time, disjoint by construction). Benches
/// call this after one *untimed* telemetry-enabled pass so the timed
/// loop stays telemetry-off; no-op for an empty profile.
inline void record_phase_counters(benchmark::State& state,
                                  const rc11::obs::PhaseProfile& profile) {
  if (profile.empty()) return;
  for (std::size_t i = 0; i < rc11::obs::kPhaseCount; ++i) {
    const auto p = static_cast<rc11::obs::Phase>(i);
    const rc11::obs::PhaseProfile::Entry& e = profile[p];
    if (e.count == 0) continue;
    const std::string name = rc11::obs::phase_name(p);
    state.counters["phase_ns_" + name] =
        static_cast<double>(e.ns);
    state.counters["phase_share_" + name] = profile.share(p);
  }
}

/// Emits one w<k>_<field> counter per worker of a parallel run so
/// steal-rate / load-balance regressions are visible in BENCH_*.json,
/// not just in the aggregated totals.
inline void record_worker_counters(
    benchmark::State& state,
    const std::vector<rc11::mc::WorkerStats>& workers) {
  for (std::size_t k = 0; k < workers.size(); ++k) {
    const rc11::mc::WorkerStats& w = workers[k];
    const std::string pre = "w" + std::to_string(k) + "_";
    state.counters[pre + "processed"] = static_cast<double>(w.processed);
    state.counters[pre + "enqueued"] = static_cast<double>(w.enqueued);
    state.counters[pre + "steals"] = static_cast<double>(w.steals);
    state.counters[pre + "merged"] = static_cast<double>(w.merged);
  }
}

/// Console output plus registry capture.
class JsonRegistryReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      if (run.error_occurred) continue;
      std::string name = run.benchmark_name();
      if (!run.report_label.empty()) name += "/" + run.report_label;
      auto& entry = registry()[name];
      const double iters = run.iterations > 0
                               ? static_cast<double>(run.iterations)
                               : 1.0;
      const double secs_per_iter = run.real_accumulated_time / iters;
      entry["real_ms_per_iter"] = secs_per_iter * 1e3;
      for (const auto& [key, counter] : run.counters) {
        entry[key] = counter.value;
      }
      if (secs_per_iter > 0) {
        const auto derive = [&](const char* counter, const char* out) {
          const auto it = run.counters.find(counter);
          if (it != run.counters.end()) {
            entry[out] = it->second.value / secs_per_iter;
          }
        };
        derive("states", "states_per_sec");
        derive("transitions", "transitions_per_sec");
      }
    }
    ConsoleReporter::ReportRuns(runs);
  }
};

inline void escape_into(std::string& out, const std::string& s) {
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
}

/// Writes BENCH_<name>.json: {"bench": <name>, "benchmarks": {...}}.
inline void write_report(const std::string& name) {
  const std::string path = "BENCH_" + name + ".json";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return;
  std::string esc;
  escape_into(esc, name);
  std::fprintf(f, "{\n  \"bench\": \"%s\",\n  \"benchmarks\": {", esc.c_str());
  bool first_bench = true;
  for (const auto& [bench, metrics] : registry()) {
    esc.clear();
    escape_into(esc, bench);
    std::fprintf(f, "%s\n    \"%s\": {", first_bench ? "" : ",",
                 esc.c_str());
    first_bench = false;
    bool first_metric = true;
    for (const auto& [key, value] : metrics) {
      esc.clear();
      escape_into(esc, key);
      std::fprintf(f, "%s\n      \"%s\": %.17g", first_metric ? "" : ",",
                   esc.c_str(), value);
      first_metric = false;
    }
    std::fprintf(f, "\n    }");
  }
  std::fprintf(f, "\n  }\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
}

}  // namespace rc11bench

#define RC11_BENCH_MAIN(NAME)                                          \
  int main(int argc, char** argv) {                                    \
    benchmark::Initialize(&argc, argv);                                \
    if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;  \
    rc11bench::JsonRegistryReporter reporter;                          \
    benchmark::RunSpecifiedBenchmarks(&reporter);                      \
    benchmark::Shutdown();                                             \
    rc11bench::write_report(NAME);                                     \
    return 0;                                                          \
  }
