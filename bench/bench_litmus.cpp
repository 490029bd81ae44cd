// Experiment L1: model-checking cost per litmus test (the paper's
// qualitative "behaviours of the RAR model" table, regenerated with
// timing). One benchmark per catalogue entry; counters report unique
// states, transitions and distinct outcomes.
#include <benchmark/benchmark.h>

#include "bench_report.hpp"
#include "rc11/rc11.hpp"

using namespace rc11;

namespace {

void run_litmus(benchmark::State& state, const litmus::Test& test,
                mc::PorMode por) {
  const lang::ParsedLitmus parsed = lang::parse_litmus(test.source);
  mc::ExploreOptions opts;
  opts.por = por;
  std::size_t states = 0;
  std::size_t transitions = 0;
  std::size_t outcomes = 0;
  bool pass = true;
  for (auto _ : state) {
    const mc::ReachabilityResult r =
        mc::check_reachable(parsed.program, parsed.condition, opts);
    const mc::OutcomeResult o = mc::enumerate_outcomes(parsed.program, opts);
    benchmark::DoNotOptimize(r.reachable);
    states = o.stats.states;
    transitions = o.stats.transitions;
    outcomes = o.outcomes.size();
    pass = r.reachable ==
           (test.expected == litmus::Expectation::kAllowed);
  }
  state.counters["states"] = static_cast<double>(states);
  state.counters["transitions"] = static_cast<double>(transitions);
  state.counters["outcomes"] = static_cast<double>(outcomes);
  state.counters["pass"] = pass ? 1 : 0;

  // One untimed telemetry-enabled pass: the timed loop above stays
  // telemetry-off; the phase profile rides along in BENCH_litmus.json.
  obs::Telemetry tel;
  mc::ExploreOptions topts = opts;
  topts.telemetry = &tel;
  const mc::OutcomeResult profiled =
      mc::enumerate_outcomes(parsed.program, topts);
  benchmark::DoNotOptimize(profiled.outcomes.size());
  rc11bench::record_phase_counters(state, tel.profile());
}

// One series per catalogue entry under full exploration (the paper's
// behaviours table).
const int register_all = [] {
  for (const litmus::Test& t : litmus::catalog()) {
    benchmark::RegisterBenchmark(
        ("litmus/" + t.name).c_str(),
        [&t](benchmark::State& s) { run_litmus(s, t, mc::PorMode::kNone); });
  }
  return 0;
}();

}  // namespace

RC11_BENCH_MAIN("litmus")
