// verdict_bench: the time-to-verdict benchmark driver.
//
// One client in a closed loop: a single process submits a workload's jobs
// — (program, query, options, workers) tuples — one after another to the
// library's public queries, times each call, and checks every verdict
// against a reference computed outside the timed region. A run repeats
// whole passes over the job list, each in a fresh seeded order, until
// --seconds have passed (and at least kMinPasses passes ran); a job's time
// to verdict is its best over the passes.
//
// --trace 0 prints the end-to-end metrics. --trace 1 alternates untraced
// passes with passes that record a span around every query call (engine
// telemetry on, its phase totals as child spans), then runs the layer
// ladder and prints the per-layer metrics. Either way the last line of
// stdout is one JSON object, and --out receives one {"type":"verdict"}
// NDJSON record per timed job plus, when traced, the spans as a Chrome
// trace and every per-layer number as JSON.
//
//   verdict_bench --workload plain --seed 1 --seconds 30 --trace 0
//                 --programs verdictbench/programs --out .bench_build/out
//   verdict_bench --references --programs verdictbench/programs

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <fstream>
#include <map>
#include <numeric>
#include <optional>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "ladder.hpp"
#include "spans.hpp"
#include "suite.hpp"

namespace vbench {
namespace {

using namespace rc11;
using Clock = std::chrono::steady_clock;
namespace fs = std::filesystem;

/// Set-ups per run; setup_s is their median, probe-scaled like job times.
constexpr int kSetupRepeats = 5;
/// A job's time to verdict in a run is its best over the run's passes:
/// other tenants of a shared host slow it by up to ~70% for seconds at a
/// time, and the best of several passes spread over the run filters those
/// bursts where a median cannot.
constexpr std::size_t kMinPasses = 3;
/// Sustained contention still moves a whole run's best times by 20-30%,
/// library code more than other code. Every pass therefore starts with the
/// best of kProbeRepeats runs of a fixed probe, and each job time is
/// scaled by kProbeNominalMs / that probe time: times read as if the probe
/// ran at its nominal, uncontended speed. The scaling halved the
/// run-to-run spread of suite_s on a contended 4-vCPU host.
constexpr int kProbeRepeats = 8;
constexpr double kProbeNominalMs = 0.68;
constexpr std::size_t kLadderNodes = 48;
/// The names the mode ablation tries; one por_mode_from_name no longer
/// accepts drops out of the report.
constexpr const char* kPorNames[] = {"none",         "sleep",
                                     "source",       "source-sleep",
                                     "optimal",      "optimal-parsimonious"};
/// The eight phases obs reports, by their names there.
constexpr const char* kPhaseNames[] = {
    "enumerate",   "apply",      "undo",          "push_event",
    "fingerprint", "seen_probe", "wakeup_insert", "race_detect"};

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  bool references = false;
  std::string programs;
  std::string out;
};

std::optional<Args> parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--references") {
      a.references = true;
      continue;
    }
    if (i + 1 >= argc) return std::nullopt;
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        a.workload = value;
      } else if (flag == "--seed") {
        a.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        a.seconds = std::stod(value);
      } else if (flag == "--trace") {
        a.trace = std::stoi(value) != 0;
      } else if (flag == "--programs") {
        a.programs = value;
      } else if (flag == "--out") {
        a.out = value;
      } else {
        return std::nullopt;
      }
    } catch (const std::exception&) {
      return std::nullopt;
    }
  }
  if (a.programs.empty()) return std::nullopt;
  if (!a.references && (a.workload.empty() || a.seconds <= 0 || a.out.empty())) {
    return std::nullopt;
  }
  return a;
}

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Nearest-rank quantile.
double quantile(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::max<std::size_t>(rank, 1) - 1];
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double geomean(const std::vector<double>& v) {
  double sum = 0;
  for (const double x : v) sum += std::log(std::max(x, 1e-6));
  return std::exp(sum / static_cast<double>(v.size()));
}

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::string note;  ///< printed beside the value only
};

void print_metrics(const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("%-30s %18.6f %-6s %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.note.c_str());
  }
}

std::string metrics_json(const std::vector<Metric>& metrics) {
  std::ostringstream os;
  os.precision(17);
  os << "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    os << (i == 0 ? "" : ", ") << "\"" << m.name << "\": {\"value\": "
       << (std::isfinite(m.value) ? m.value : 0.0) << ", \"unit\": \"" << m.unit
       << "\"}";
  }
  os << "}";
  return os.str();
}

/// One timed execution of a job.
struct Run {
  const Job* job = nullptr;
  JobResult result;
  double pass_probe_ms = 0;  ///< best probe time at the start of its pass
};

/// Host-speed probe: a fixed allocation-churn loop that calls no library
/// code (small vectors created, copied and freed, as the checker does with
/// configurations). Returns its time in ms.
double probe_ms() {
  const auto t0 = Clock::now();
  std::vector<std::vector<std::uint64_t>> pool(512);
  std::uint64_t x = 0x9e3779b97f4a7c15ull;
  std::uint64_t h = 0;
  for (int i = 0; i < 20000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    std::vector<std::uint64_t>& slot = pool[x % pool.size()];
    if (!slot.empty()) h += slot.front();
    slot.assign(4 + x % 28, x);
  }
  __asm__ __volatile__("" : : "r"(h) : "memory");
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

double best_probe_ms() {
  double best = probe_ms();
  for (int k = 1; k < kProbeRepeats; ++k) best = std::min(best, probe_ms());
  return best;
}

class Records {
 public:
  Records(const fs::path& path, std::string workload)
      : os_(path), workload_(std::move(workload)) {
    if (!os_) throw std::runtime_error("cannot write " + path.string());
  }

  /// One {"type":"verdict"} line.
  void write(std::size_t pass, const Job& j, const JobResult& r) {
    const Subject& s = *j.subject;
    const auto flag = [](bool b) { return b ? "true" : "false"; };
    os_ << "{\"type\":\"verdict\",\"workload\":\"" << workload_
        << "\",\"pass\":" << pass << ",\"job\":" << j.id << ",\"program\":\""
        << json_escape(s.name) << "\",\"program_fp\":\"" << s.fingerprint
        << "\",\"query\":\"" << query_name(j.query) << "\",\"options\":\""
        << role_name(j.role) << "\",\"workers\":" << j.workers
        << ",\"max_states\":" << j.max_states << ",\"verdict\":\""
        << verdict_name(r.verdict) << "\",\"budget_hit\":" << flag(r.budget_hit)
        << ",\"reference_ok\":" << flag(!r.wrong) << ",\"wall_ms\":" << r.ms
        << ",\"states\":" << r.stats.states
        << ",\"transitions\":" << r.stats.transitions
        << ",\"finals\":" << r.stats.finals
        << ",\"peak_bytes\":" << r.stats.peak_seen_bytes
        << ",\"witness_len\":" << r.witness_len;
    if (!r.error.empty()) os_ << ",\"error\":\"" << json_escape(r.error) << "\"";
    os_ << "}\n";
  }

 private:
  std::ofstream os_;
  std::string workload_;
};

bool same_counters(const mc::ExploreStats& a, const mc::ExploreStats& b) {
  return a.states == b.states && a.transitions == b.transitions &&
         a.merged == b.merged && a.finals == b.finals &&
         a.max_depth == b.max_depth && a.peak_seen_bytes == b.peak_seen_bytes &&
         a.por_pruned == b.por_pruned && a.backtracks == b.backtracks &&
         a.sleep_blocked == b.sleep_blocked &&
         a.complete_traces == b.complete_traces &&
         a.redundant_transitions == b.redundant_transitions &&
         a.truncated == b.truncated;
}

/// Runs a job; with a span log, inside a query span whose children are the
/// engine's phase totals for the call (per worker for parallel jobs, laid
/// end to end: they are totals, not intervals).
JobResult call(const Job& job, SpanLog* log, obs::Telemetry* telemetry,
               std::optional<mc::PorMode> mode = std::nullopt) {
  if (log == nullptr) return run_job(job, nullptr, mode);
  const obs::PhaseProfile base = telemetry->profile();
  const std::int64_t id = log->open(
      std::string(query_name(job.query)) + " " + job.subject->name, "query",
      static_cast<std::int64_t>(job.id));
  JobResult r = run_job(job, telemetry, mode);
  log->close(id);
  const obs::PhaseProfile phases = telemetry->profile() - base;
  std::uint64_t at = log->spans()[static_cast<std::size_t>(id)].start_ns;
  for (std::size_t p = 0; p < obs::kPhaseCount; ++p) {
    const auto phase = static_cast<obs::Phase>(p);
    const std::uint64_t ns = phases[phase].ns / job.workers;
    if (ns == 0) continue;
    log->add(std::string("phase.") + obs::phase_name(phase), "phase", id, at, ns);
    at += ns;
  }
  return r;
}

/// Whole passes over the job list, each in a fresh seeded order.
class Runner {
 public:
  Runner(const Suite& suite, std::uint64_t seed, Records& records)
      : suite_(suite), rng_(seed ^ 0x0bdeull), records_(records) {}

  /// Runs one pass, appending its runs.
  void pass(std::vector<Run>& out, SpanLog* log, obs::Telemetry* telemetry) {
    std::vector<const Job*> order;
    for (const Job& j : suite_.jobs) order.push_back(&j);
    std::shuffle(order.begin(), order.end(), rng_);
    const std::size_t index = passes_++;
    const std::int64_t span =
        log != nullptr ? log->open("pass " + std::to_string(index), "pass") : -1;
    const double probe = best_probe_ms();
    for (const Job* job : order) {
      Run run{job, call(*job, log, telemetry), probe};
      records_.write(index, *job, run.result);
      check_determinism(run);
      out.push_back(std::move(run));
    }
    if (log != nullptr) log->close(span);
  }

  [[nodiscard]] const std::vector<std::string>& mismatches() const {
    return mismatches_;
  }

 private:
  /// A sequential job's counters must repeat exactly from pass to pass;
  /// parallel counters depend on the schedule and are not compared.
  void check_determinism(const Run& run) {
    if (run.job->workers > 1 || !run.result.error.empty()) return;
    const auto [it, fresh] = first_.emplace(run.job->id, run.result.stats);
    if (!fresh && !same_counters(it->second, run.result.stats)) {
      mismatches_.push_back(std::string(query_name(run.job->query)) + " " +
                            run.job->subject->name + " (" +
                            role_name(run.job->role) + "): " +
                            it->second.to_string() + " then " +
                            run.result.stats.to_string());
    }
  }

  const Suite& suite_;
  std::mt19937_64 rng_;
  Records& records_;
  std::size_t passes_ = 0;
  std::map<std::size_t, mc::ExploreStats> first_;
  std::vector<std::string> mismatches_;
};

/// Each job's best probe-scaled time over the runs given, in job order.
std::vector<double> best_per_job(const std::vector<Run>& runs) {
  std::map<std::size_t, double> best;
  for (const Run& r : runs) {
    const double ms = r.result.ms * kProbeNominalMs / r.pass_probe_ms;
    const auto [it, fresh] = best.emplace(r.job->id, ms);
    if (!fresh) it->second = std::min(it->second, ms);
  }
  std::vector<double> out;
  for (const auto& [id, ms] : best) out.push_back(ms);
  return out;
}

std::size_t count_failed(const std::vector<Run>& runs) {
  return static_cast<std::size_t>(std::count_if(
      runs.begin(), runs.end(), [](const Run& r) { return r.result.failed(); }));
}

std::size_t count_wrong(const std::vector<Run>& runs) {
  return static_cast<std::size_t>(std::count_if(
      runs.begin(), runs.end(), [](const Run& r) { return r.result.wrong; }));
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // kB on Linux
}

void report_failures(const std::vector<Run>& runs) {
  for (const Run& r : runs) {
    if (!r.result.failed()) continue;
    std::printf("FAILED %s %s (%s, %zu workers): verdict %s%s%s%s\n",
                query_name(r.job->query), r.job->subject->name.c_str(),
                role_name(r.job->role), r.job->workers,
                verdict_name(r.result.verdict),
                r.result.wrong ? ", differs from the reference" : "",
                r.result.budget_hit ? ", budget hit" : "",
                r.result.error.empty() ? "" : (", " + r.result.error).c_str());
  }
}

/// Prints the run's result: the last line of stdout.
void print_result(bool correct, std::size_t attempted, std::size_t failed,
                  const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": %s}\n",
              correct ? "true" : "false", attempted, failed,
              metrics_json(metrics).c_str());
  std::fflush(stdout);
}

// --- End-to-end run --------------------------------------------------------------

int timed_run(const Args& a, double setup_s, Runner& runner) {
  std::vector<Run> runs;
  std::size_t passes = 0;
  const auto t0 = Clock::now();
  do {
    runner.pass(runs, nullptr, nullptr);
    ++passes;
  } while (seconds_since(t0) < a.seconds || passes < kMinPasses);

  const std::vector<double> ms = best_per_job(runs);
  const std::size_t n = ms.size();
  const auto beyond_p90 =
      n - static_cast<std::size_t>(std::ceil(0.9 * static_cast<double>(n)));
  const std::size_t failed = count_failed(runs);
  const std::size_t wrong = count_wrong(runs);
  const std::string samples = "n=" + std::to_string(n) + " jobs, best of " +
                              std::to_string(passes) + " passes";
  const std::vector<Metric> metrics = {
      {"verdict_ms_p50", quantile(ms, 0.5), "ms", samples},
      {"verdict_ms_p90", quantile(ms, 0.9), "ms",
       samples + ", " + std::to_string(beyond_p90) + " beyond"},
      {"verdict_ms_geomean", geomean(ms), "ms", samples},
      {"suite_s", std::accumulate(ms.begin(), ms.end(), 0.0) / 1e3, "s",
       "sum of the " + std::to_string(n) + " jobs' best times"},
      {"peak_rss_mb", peak_rss_mb(), "MB", "getrusage"},
      {"setup_s", setup_s, "s",
       "median of " + std::to_string(kSetupRepeats) + " set-ups"},
  };
  print_metrics(metrics);
  // Zero at a healthy commit, so they travel as the result's `failed` and
  // `correct` rather than as metrics.
  double fastest_probe = runs.front().pass_probe_ms;
  for (const Run& r : runs) fastest_probe = std::min(fastest_probe, r.pass_probe_ms);
  std::printf("host probe: best %.4f ms against %.2f ms nominal; NDJSON wall_ms "
              "are unscaled\n", fastest_probe, kProbeNominalMs);
  const std::string attempted = std::to_string(runs.size()) + " timed calls";
  print_metrics({{"failed_share",
                  ratio(static_cast<double>(failed), static_cast<double>(runs.size())),
                  "ratio", std::to_string(failed) + " of " + attempted},
                 {"wrong_verdicts", static_cast<double>(wrong), "count", attempted}});
  report_failures(runs);
  for (const std::string& m : runner.mismatches()) {
    std::printf("NONDETERMINISTIC %s\n", m.c_str());
  }
  print_result(wrong == 0 && runner.mismatches().empty(), runs.size(), failed, metrics);
  return 0;
}

// --- Traced run ------------------------------------------------------------------

/// Mean span duration by name, over spans of category `cat`.
std::map<std::string, double> mean_ns(const SpanLog& log, const std::string& cat) {
  std::map<std::string, std::pair<double, std::size_t>> acc;
  for (const Span& s : log.spans()) {
    if (cat != s.cat) continue;
    auto& [sum, count] = acc[s.name];
    sum += static_cast<double>(s.ns());
    ++count;
  }
  std::map<std::string, double> out;
  for (const auto& [name, a] : acc) out[name] = a.first / static_cast<double>(a.second);
  return out;
}

int traced_run(const Args& a, const Suite& suite, Runner& runner,
               Records& records, const fs::path& trace_path,
               const fs::path& layers_path) {
  SpanLog log;
  obs::Telemetry telemetry;
  std::vector<Run> untraced;
  std::vector<Run> traced;
  std::size_t passes = 0;
  // Alternating keeps host drift from landing on one side.
  const auto t0 = Clock::now();
  do {
    runner.pass(untraced, nullptr, nullptr);
    runner.pass(traced, &log, &telemetry);
    ++passes;
  } while (seconds_since(t0) < a.seconds || passes < kMinPasses);
  // Calls beyond the passes: traced race/outcomes pairs and untraced runs
  // at the other worker count, recorded like pass jobs, and the untraced
  // mode ablation. All are checked and count as attempted.
  std::vector<Run> pairs;
  std::vector<Run> counterparts;
  std::vector<Run> ablation;
  std::deque<Job> twins;  // stable addresses for the runs' job pointers
  const auto record = [&](std::vector<Run>& into, const Job& job, JobResult r) {
    records.write(2 * passes, job, r);
    into.push_back({&job, std::move(r)});
    return into.back().result;
  };

  // Race against outcomes on the same programs and options: the derived
  // workload's race-free race jobs, elsewhere the generated programs.
  double race_ms = 0;
  double outcomes_ms = 0;
  for (const Job& j : suite.jobs) {
    const Subject& s = *j.subject;
    const bool pair = a.workload == "derived"
                          ? j.query == Query::kRace
                          : j.query == Query::kOutcomes && s.family.rfind("draw", 0) == 0;
    if (!pair || !s.race_free.value_or(false) || !s.outcomes) continue;
    Job race = j;
    race.query = Query::kRace;
    Job outcomes = j;
    outcomes.query = Query::kOutcomes;
    race_ms += record(pairs, twins.emplace_back(race), call(race, &log, &telemetry)).ms;
    outcomes_ms +=
        record(pairs, twins.emplace_back(outcomes), call(outcomes, &log, &telemetry)).ms;
  }

  // The same jobs at the other worker count, untraced: 1-worker against
  // parallel time, transitions and steals.
  double seq_ms = 0;
  double par_ms = 0;
  double seq_transitions = 0;
  double par_transitions = 0;
  double steals = 0;
  std::vector<double> imbalance;
  const std::size_t first_pass = suite.jobs.size();
  for (std::size_t i = 0; i < first_pass; ++i) {
    const Run& run = untraced[i];
    if (run.job->subject->invariants.size() > 1) continue;  // no parallel form
    Job other = *run.job;
    other.workers = run.job->workers > 1 ? 1 : parallel_workers();
    const JobResult o =
        record(counterparts, twins.emplace_back(other), call(other, nullptr, nullptr));
    const JobResult& seq = run.job->workers > 1 ? o : run.result;
    const JobResult& par = run.job->workers > 1 ? run.result : o;
    seq_ms += seq.ms;
    par_ms += par.ms;
    seq_transitions += static_cast<double>(seq.stats.transitions);
    par_transitions += static_cast<double>(par.stats.transitions);
    double most = 0;
    double total = 0;
    for (const mc::WorkerStats& w : par.workers) {
      steals += static_cast<double>(w.steals);
      most = std::max(most, static_cast<double>(w.processed));
      total += static_cast<double>(w.processed);
    }
    if (total > 0) imbalance.push_back(most / (total / static_cast<double>(par.workers.size())));
  }

  // The layer ladder over every program the workload's jobs run.
  std::set<const Subject*> programs;
  for (const Job& j : suite.jobs) programs.insert(j.subject);
  for (std::size_t i = 0; i < suite.subjects.size(); ++i) {
    if (programs.count(suite.subjects[i].get()) != 0) {
      run_ladder(*suite.subjects[i], a.seed + i, kLadderNodes, log);
    }
  }

  // Mode ablation on the por programs: every POR mode still accepted.
  std::vector<Metric> modes;
  if (a.workload == "por") {
    for (const char* name : kPorNames) {
      const std::optional<mc::PorMode> mode = mc::por_mode_from_name(name);
      if (!mode) continue;
      std::vector<double> ms;
      double transitions = 0;
      for (const Job& j : suite.jobs) {
        if (j.query == Query::kInvariant) continue;
        ablation.push_back({&j, call(j, nullptr, nullptr, mode)});
        ms.push_back(ablation.back().result.ms);
        transitions += static_cast<double>(ablation.back().result.stats.transitions);
      }
      modes.push_back({std::string("mode.") + name + ".ms_geomean", geomean(ms), "ms",
                       std::to_string(ms.size()) + " jobs"});
      modes.push_back({std::string("mode.") + name + ".transitions", transitions, "count", ""});
    }
  }

  // --- Per-layer metrics from the first traced pass and the spans.
  mc::ExploreStats sum;
  double pass_ns = 0;
  std::size_t peak = 0;
  for (std::size_t i = 0; i < first_pass; ++i) {
    const JobResult& r = traced[i].result;
    sum += r.stats;
    pass_ns += r.ms * 1e6;
    peak = std::max(peak, r.stats.peak_seen_bytes);
  }
  std::map<Query, std::vector<double>> by_query;
  for (const std::vector<Run>* runs : {&traced, &pairs}) {
    for (const Run& r : *runs) by_query[r.job->query].push_back(r.result.ms);
  }
  const auto query_ms = [&](Query q) {
    const auto it = by_query.find(q);
    return it == by_query.end() ? 0.0 : geomean(it->second);
  };
  const std::map<std::string, double> ladder = mean_ns(log, "ladder");
  const auto rung = [&](const char* name, double scale) {
    const auto it = ladder.find(name);
    return it == ladder.end() ? 0.0 : it->second / scale;
  };
  double query_span_ns = 0;
  double phase_ns = 0;
  std::map<std::string, double> phase_by_name;
  for (const Span& s : log.spans()) {
    if (std::string("query") == s.cat) query_span_ns += static_cast<double>(s.ns());
    if (std::string("phase") == s.cat) {
      phase_ns += static_cast<double>(s.ns());
      phase_by_name[s.name.substr(6)] += static_cast<double>(s.ns());
    }
  }
  double parse_us = 0;
  for (const double us : suite.parse_us) parse_us += us;

  std::vector<Metric> metrics = {
      {"lang.parse_us", ratio(parse_us, static_cast<double>(suite.parse_us.size())), "us",
       std::to_string(suite.parse_us.size()) + " parse/import/generate calls"},
      {"interp.enumerate_ns", rung("interp.enumerate", 1), "ns", "ladder"},
      {"interp.apply_ns", rung("interp.apply", 1), "ns", "ladder"},
      {"interp.undo_ns", rung("interp.undo", 1), "ns", "ladder"},
      {"interp.copy_ns", rung("interp.copy", 1), "ns", "ladder"},
      {"interp.successors_us", rung("interp.successors", 1e3), "us", "ladder"},
      {"c11.push_event_ns", rung("c11.push_event", 1), "ns", "ladder"},
      {"c11.pop_event_ns", rung("c11.pop_event", 1), "ns", "ladder"},
      {"c11.compute_derived_us", rung("c11.compute_derived", 1e3), "us", "ladder"},
      {"c11.check_sc_us", rung("c11.check_sc", 1e3), "us", "ladder"},
      {"c11.race_with_us", rung("c11.race_with", 1e3), "us", "ladder"},
      {"util.fingerprint_ns", rung("util.fingerprint", 1), "ns", "ladder"},
      {"mc.seen_insert_ns", rung("mc.seen_insert", 1), "ns", "ladder"},
      {"mc.peak_seen_bytes", static_cast<double>(peak), "bytes", "max over one pass"},
      {"mc.states", static_cast<double>(sum.states), "count", "one pass"},
      {"mc.transitions", static_cast<double>(sum.transitions), "count", "one pass"},
      {"mc.complete_traces", static_cast<double>(sum.complete_traces), "count", "one pass"},
      {"mc.redundant_transitions", static_cast<double>(sum.redundant_transitions), "count", "one pass"},
      {"mc.sleep_blocked", static_cast<double>(sum.sleep_blocked), "count", "one pass"},
      {"mc.backtracks", static_cast<double>(sum.backtracks), "count", "one pass"},
      {"mc.por_pruned", static_cast<double>(sum.por_pruned), "count", "one pass"},
      {"mc.redundant_share",
       ratio(static_cast<double>(sum.redundant_transitions), static_cast<double>(sum.transitions)),
       "ratio", "redundant / all transitions"},
      {"mc.traces_per_final",
       ratio(static_cast<double>(sum.complete_traces), static_cast<double>(sum.finals)), "ratio",
       "complete traces / distinct finals"},
      {"mc.ns_per_transition", ratio(pass_ns, static_cast<double>(sum.transitions)), "ns",
       "one traced pass"},
      {"query.outcomes_ms", query_ms(Query::kOutcomes), "ms", "geomean"},
      {"query.reach_ms", query_ms(Query::kReach), "ms", "geomean"},
      {"query.race_ms", query_ms(Query::kRace), "ms", "geomean"},
      {"query.invariant_ms", query_ms(Query::kInvariant), "ms", "geomean"},
      {"query.race_over_outcomes", ratio(race_ms, outcomes_ms), "ratio",
       "same programs and options"},
      {"par.steals", steals, "count", "one pass, schedule-dependent"},
      {"par.imbalance",
       imbalance.empty() ? 0.0
                         : std::accumulate(imbalance.begin(), imbalance.end(), 0.0) /
                               static_cast<double>(imbalance.size()),
       "ratio", "max / mean processed per worker"},
      {"par.speedup", ratio(seq_ms, par_ms), "ratio",
       "1 worker / " + std::to_string(parallel_workers()) + " workers"},
      {"par.transition_drift", ratio(par_transitions, seq_transitions), "ratio",
       "parallel / sequential transitions, schedule-dependent"},
  };
  for (const char* phase : kPhaseNames) {
    metrics.push_back({std::string("obs.share.") + phase,
                       ratio(phase_by_name[phase], query_span_ns), "ratio", "of query spans"});
  }
  metrics.push_back({"obs.unattributed_share", 1 - ratio(phase_ns, query_span_ns), "ratio",
                     "1 - phases / query spans"});
  const std::vector<double> best_traced = best_per_job(traced);
  const std::vector<double> best_untraced = best_per_job(untraced);
  metrics.push_back(
      {"obs.trace_overhead",
       ratio(std::accumulate(best_traced.begin(), best_traced.end(), 0.0),
             std::accumulate(best_untraced.begin(), best_untraced.end(), 0.0)) -
           1,
       "ratio", "traced / untraced suite_s - 1, " + std::to_string(passes) + " passes each"});

  print_metrics(metrics);
  print_metrics(modes);
  std::printf("parallel counters (par.*, parallel jobs' mc.*) depend on the schedule; "
              "the determinism check compares sequential jobs only\n");

  {
    std::ofstream os(trace_path);
    log.write_chrome_trace(os);
  }
  {
    std::vector<Metric> all = metrics;
    all.insert(all.end(), modes.begin(), modes.end());
    std::ofstream os(layers_path);
    os << "{\"workload\": \"" << a.workload << "\", \"seed\": " << a.seed
       << ", \"metrics\": " << metrics_json(all) << "}\n";
  }
  std::printf("spans: %zu written to %s\n", log.spans().size(), trace_path.c_str());

  std::vector<Run> attempted = traced;
  for (const std::vector<Run>* runs : {&pairs, &counterparts, &ablation}) {
    attempted.insert(attempted.end(), runs->begin(), runs->end());
  }
  report_failures(attempted);
  for (const std::string& m : runner.mismatches()) {
    std::printf("NONDETERMINISTIC %s\n", m.c_str());
  }
  print_result(count_wrong(attempted) == 0 && runner.mismatches().empty(),
               attempted.size(), count_failed(attempted), metrics);
  return 0;
}

/// Runs every job of a small subject once, so allocators and code paths
/// are warm before the first timed job.
void warm_up(const Suite& suite) {
  for (const Job& j : suite.jobs) {
    if (j.subject->small) (void)run_job(j);
  }
}

int run(const Args& a, Clock::time_point process_start) {
  std::vector<double> setup_s;
  Suite suite;
  for (int k = 0; k < kSetupRepeats; ++k) {
    const auto t0 = k == 0 ? process_start : Clock::now();
    suite = build_suite(a.workload, a.seed, a.programs);
    warm_up(suite);
    const double seconds = seconds_since(t0);
    setup_s.push_back(seconds * kProbeNominalMs / best_probe_ms());
  }
  std::printf("workload %s, seed %llu, %zu subjects, %zu jobs per pass\n",
              a.workload.c_str(), static_cast<unsigned long long>(a.seed),
              suite.subjects.size(), suite.jobs.size());
  for (const auto& s : suite.subjects) {
    std::printf("program %-28s %-9s fp=%s\n", s->name.c_str(), s->family.c_str(),
                s->fingerprint.c_str());
  }

  fs::create_directories(a.out);
  const std::string tag = a.workload + "-seed" + std::to_string(a.seed) +
                          (a.trace ? "-traced" : "");
  Records records(fs::path(a.out) / ("verdicts-" + tag + ".ndjson"), a.workload);
  Runner runner(suite, a.seed, records);
  if (!a.trace) {
    return timed_run(a, median(setup_s), runner);
  }
  return traced_run(a, suite, runner, records,
                    fs::path(a.out) / ("trace-" + tag + ".json"),
                    fs::path(a.out) / ("layers-" + tag + ".json"));
}

}  // namespace
}  // namespace vbench

int main(int argc, char** argv) {
  const auto start = std::chrono::steady_clock::now();
  const std::optional<vbench::Args> args = vbench::parse_args(argc, argv);
  if (!args) {
    std::fprintf(stderr,
                 "usage: verdict_bench --workload <plain|por|derived> "
                 "--seed <n> --seconds <s> --trace <0|1> --programs <dir> --out <dir>\n"
                 "       verdict_bench --references --programs <dir>\n");
    return 2;
  }
  try {
    if (args->references) {
      vbench::print_references(args->programs);
      return 0;
    }
    return vbench::run(*args, start);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "verdict_bench: %s\n", e.what());
    return 1;
  }
}
