// Experiment M1: model-checker scaling and design ablations —
//  * state count / time vs. number of writer threads;
//  * canonical-form deduplication ON vs OFF (DESIGN.md key decision);
//  * tau compression ON vs OFF;
//  * seen-set footprint: 128-bit fingerprint tables vs. std::string
//    canonical keys (bytes per state);
//  * the three partial-order reduction modes over the litmus catalogue.
#include <benchmark/benchmark.h>

#include "bench_report.hpp"
#include "rc11/rc11.hpp"

using namespace rc11;

namespace {

lang::Program writers_and_reader(int writers) {
  lang::ProgramBuilder b;
  auto x = b.var("x", 0);
  auto y = b.var("y", 0);
  for (int i = 0; i < writers; ++i) {
    b.thread({lang::assign(i % 2 == 0 ? x : y, i + 1)});
  }
  auto r0 = b.reg("r0");
  auto r1 = b.reg("r1");
  b.thread({lang::reg_assign(r0, lang::ExprPtr(x)),
            lang::reg_assign(r1, lang::ExprPtr(y))});
  return std::move(b).build();
}

void states_vs_threads(benchmark::State& state) {
  const lang::Program p =
      writers_and_reader(static_cast<int>(state.range(0)));
  std::size_t states = 0;
  for (auto _ : state) {
    const mc::ExploreResult r = mc::explore(p, {}, {});
    states = r.stats.states;
  }
  state.counters["states"] = static_cast<double>(states);
}
BENCHMARK(states_vs_threads)->DenseRange(1, 5)->Unit(
    benchmark::kMillisecond);

void dedup_ablation(benchmark::State& state) {
  const bool dedup = state.range(0) != 0;
  const lang::Program p = writers_and_reader(4);
  mc::ExploreOptions opts;
  opts.dedup = dedup;
  std::size_t states = 0;
  for (auto _ : state) {
    const mc::ExploreResult r = mc::explore(p, opts, {});
    states = r.stats.states;
  }
  state.SetLabel(dedup ? "dedup" : "no-dedup");
  state.counters["states"] = static_cast<double>(states);
}
BENCHMARK(dedup_ablation)->Arg(1)->Arg(0)->Unit(benchmark::kMillisecond);

void tau_compression_ablation(benchmark::State& state) {
  // Raw mc::explore honours step.tau_compress; the outcome query would
  // fuse silent steps in both series.
  const bool tau = state.range(0) != 0;
  const lang::Program p = lang::parse_litmus(
      litmus::find_test("CoRR2").source).program;
  mc::ExploreOptions opts;
  opts.step.tau_compress =
      tau ? interp::TauCompress::kFused : interp::TauCompress::kEveryStep;
  std::size_t states = 0;
  for (auto _ : state) {
    const mc::ExploreResult r = mc::explore(p, opts, {});
    states = r.stats.states;
  }
  state.SetLabel(tau ? "tau-compress" : "plain");
  state.counters["states"] = static_cast<double>(states);
}
BENCHMARK(tau_compression_ablation)->Arg(1)->Arg(0)->Unit(
    benchmark::kMillisecond);

void seen_set_footprint(benchmark::State& state) {
  // Deduplicate the same state space once through the fingerprint table
  // and once through string canonical keys; report bytes per unique state.
  const bool fingerprints = state.range(0) != 0;
  const lang::Program p = writers_and_reader(4);
  std::size_t bytes = 0;
  std::size_t states = 0;
  for (auto _ : state) {
    if (fingerprints) {
      mc::SeenSet seen;
      mc::Visitor v;
      v.on_state = [&seen](const interp::Config& c) {
        (void)seen.insert(c.fingerprint());
        return true;
      };
      (void)mc::explore(p, {}, v);
      bytes = seen.bytes();
      states = seen.size();
    } else {
      mc::StringSeenSet seen;
      mc::Visitor v;
      v.on_state = [&seen](const interp::Config& c) {
        (void)seen.insert(c.canonical_key());
        return true;
      };
      (void)mc::explore(p, {}, v);
      bytes = seen.bytes();
      states = seen.size();
    }
  }
  state.SetLabel(fingerprints ? "fingerprint-seen-set" : "string-seen-set");
  state.counters["states"] = static_cast<double>(states);
  state.counters["seen_bytes"] = static_cast<double>(bytes);
  state.counters["bytes_per_state"] =
      static_cast<double>(bytes) / static_cast<double>(states);
}
BENCHMARK(seen_set_footprint)->Arg(1)->Arg(0)->Unit(benchmark::kMillisecond);

/// The three POR modes, in ablation order (args 0..2 of the two catalogue
/// benches below).
constexpr mc::PorMode kPorModes[] = {mc::PorMode::kNone,
                                     mc::PorMode::kSleepSets,
                                     mc::PorMode::kSourceSetsSleep};

void por_litmus_catalog(benchmark::State& state) {
  // Full exploration (no early abort) of every catalogue program under
  // each POR mode; the counters expose the state/transition reduction
  // plus the stateless-DPOR redundancy (sleep_blocked /
  // redundant_transitions).
  // Arg: 0 = plain, 1 = sleep sets, 2 = source-set DPOR + sleep sets.
  const auto mode = static_cast<std::size_t>(state.range(0));
  mc::ExploreOptions opts;
  opts.por = kPorModes[mode];
  std::size_t states = 0, transitions = 0, pruned = 0, backtracks = 0;
  std::size_t blocked = 0, redundant = 0;
  for (auto _ : state) {
    states = transitions = pruned = backtracks = blocked = redundant = 0;
    for (const auto& test : litmus::catalog()) {
      const auto parsed = lang::parse_litmus(test.source);
      const mc::ExploreResult r = mc::explore(parsed.program, opts, {});
      states += r.stats.states;
      transitions += r.stats.transitions;
      pruned += r.stats.por_pruned;
      backtracks += r.stats.backtracks;
      blocked += r.stats.sleep_blocked;
      redundant += r.stats.redundant_transitions;
    }
  }
  state.SetLabel(mc::por_mode_name(opts.por));
  state.counters["states"] = static_cast<double>(states);
  state.counters["transitions"] = static_cast<double>(transitions);
  state.counters["por_pruned"] = static_cast<double>(pruned);
  state.counters["backtracks"] = static_cast<double>(backtracks);
  state.counters["sleep_blocked"] = static_cast<double>(blocked);
  state.counters["redundant_transitions"] = static_cast<double>(redundant);

  // Untimed telemetry pass: where each mode's node cost actually goes
  // (phase_share_* counters; the timed loop stays telemetry-off).
  obs::Telemetry tel;
  mc::ExploreOptions topts = opts;
  topts.telemetry = &tel;
  for (const auto& test : litmus::catalog()) {
    const auto parsed = lang::parse_litmus(test.source);
    (void)mc::explore(parsed.program, topts, {});
  }
  rc11bench::record_phase_counters(state, tel.profile());
}
BENCHMARK(por_litmus_catalog)->DenseRange(0, 2)->Unit(
    benchmark::kMillisecond);

void litmus_catalog_throughput(benchmark::State& state) {
  // End-to-end exploration throughput over the whole litmus catalogue
  // (parsing hoisted out of the timed region — states/sec measures the
  // checker, not the front end). This is the headline number the
  // incremental semantics engine is tuned for; BENCH_mc_scaling.json
  // carries states_per_sec / transitions_per_sec / peak_seen_bytes per
  // POR mode, and CI gates every baselined entry against the checked-in
  // baseline
  // (tools/check_bench_regression.py).
  const auto mode = static_cast<std::size_t>(state.range(0));
  std::vector<lang::Program> programs;
  for (const auto& test : litmus::catalog()) {
    programs.push_back(lang::parse_litmus(test.source).program);
  }
  mc::ExploreOptions opts;
  opts.por = kPorModes[mode];
  std::size_t states = 0, transitions = 0, peak = 0;
  for (auto _ : state) {
    states = transitions = peak = 0;
    for (const lang::Program& p : programs) {
      const mc::ExploreResult r = mc::explore(p, opts, {});
      states += r.stats.states;
      transitions += r.stats.transitions;
      peak += r.stats.peak_seen_bytes;
    }
  }
  state.SetLabel(mc::por_mode_name(opts.por));
  state.counters["states"] = static_cast<double>(states);
  state.counters["transitions"] = static_cast<double>(transitions);
  state.counters["peak_seen_bytes"] = static_cast<double>(peak);

  // Untimed telemetry pass over the same hoisted programs; the CI-gated
  // states_per_sec above never sees a bound WorkerScope.
  obs::Telemetry tel;
  mc::ExploreOptions topts = opts;
  topts.telemetry = &tel;
  for (const lang::Program& p : programs) {
    (void)mc::explore(p, topts, {});
  }
  rc11bench::record_phase_counters(state, tel.profile());
}
BENCHMARK(litmus_catalog_throughput)->DenseRange(0, 2)->Unit(
    benchmark::kMillisecond);

void parallel_catalog_workers(benchmark::State& state) {
  // The work-stealing explorer over the whole catalogue. The per-worker
  // counters (w<k>_processed / w<k>_steals / ...) expose the steal rate
  // and load balance that the aggregated totals hide; summed across the
  // catalogue so one JSON entry per worker covers the whole run.
  std::vector<lang::Program> programs;
  for (const auto& test : litmus::catalog()) {
    programs.push_back(lang::parse_litmus(test.source).program);
  }
  mc::ParallelOptions opts;
  opts.workers = static_cast<std::size_t>(state.range(0));
  std::size_t states = 0, transitions = 0;
  std::vector<mc::WorkerStats> workers;
  for (auto _ : state) {
    states = transitions = 0;
    workers.assign(opts.workers, mc::WorkerStats{});
    for (const lang::Program& p : programs) {
      mc::ParallelRunInfo info;
      const mc::OutcomeResult r =
          mc::enumerate_outcomes_parallel(p, opts, &info);
      states += r.stats.states;
      transitions += r.stats.transitions;
      for (std::size_t k = 0; k < info.workers.size(); ++k) {
        const mc::WorkerStats& w = info.workers[k];
        workers[k].processed += w.processed;
        workers[k].enqueued += w.enqueued;
        workers[k].steals += w.steals;
        workers[k].merged += w.merged;
      }
    }
  }
  state.counters["states"] = static_cast<double>(states);
  state.counters["transitions"] = static_cast<double>(transitions);
  rc11bench::record_worker_counters(state, workers);
}
BENCHMARK(parallel_catalog_workers)->Arg(2)->Arg(4)->Unit(
    benchmark::kMillisecond);

void peterson_bound_scaling(benchmark::State& state) {
  const lang::Program p = vcgen::make_peterson();
  mc::ExploreOptions opts;
  opts.step.loop_bound = static_cast<int>(state.range(0));
  std::size_t states = 0;
  for (auto _ : state) {
    const mc::ExploreResult r = mc::explore(p, opts, {});
    states = r.stats.states;
  }
  state.counters["states"] = static_cast<double>(states);
}
BENCHMARK(peterson_bound_scaling)->DenseRange(0, 3)->Unit(
    benchmark::kMillisecond);

}  // namespace

RC11_BENCH_MAIN("mc_scaling")
