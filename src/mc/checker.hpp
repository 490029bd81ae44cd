// User-facing verification queries built on the explorer:
//
//  * check_invariant — does a predicate hold at every reachable
//    configuration? (Section 5: invariant-based reasoning; the Peterson
//    mutual-exclusion theorem is an instance.)
//  * check_reachable — can some terminated configuration satisfy a litmus
//    condition? (exists-clauses)
//  * enumerate_outcomes — all final register/variable valuations.
//  * collect_final_executions — canonical fingerprints of all final
//    executions (consumed by the axiomatic equivalence checker).
//  * check_race_free — data-race freedom (extension).
//
// Step granularity (options.step.tau_compress, interp::TauCompress).
// Silent steps (skip elimination, guard resolution, loop unfoldings and
// register assignments) touch no memory, so they commute with every other
// thread's step. check_reachable, enumerate_outcomes and
// collect_final_executions read terminated configurations only, which
// cannot tell a search that fuses silent steps into the step before them
// from one that interleaves them: they set kFused themselves, on every
// engine, and visit far fewer states. check_invariant sets kStutterFree:
// it fuses only stutters, silent steps that keep the thread's pc and
// termination, and unfoldings, so every pc, register and termination an
// invariant may read is still reached (src/mc/README.md, "Stutter-free
// invariant search"). Both fuse an unfolding only under a loop bound,
// while the thread's unfold count is below it: an unbounded loop would
// never leave the drain. check_race_free honours the caller's setting,
// whose default keeps every silent step, except under DPOR, which always
// fuses (dpor.hpp).
#pragma once

#include <map>
#include <set>
#include <string>
#include <vector>

#include "c11/races.hpp"
#include "mc/explorer.hpp"

namespace rc11::mc {

/// An invariant over configurations. It may read each thread's pc
/// (Config::pc), registers and termination, and the execution. It may not
/// read the shape of a continuation or an unfold count: the invariant
/// queries fuse stutters and unfoldings, which change those and nothing
/// else. An unfold count is the loop bound's bookkeeping, not part of the
/// paper's configurations.
using ConfigPredicate = std::function<bool(const interp::Config&)>;

struct InvariantResult {
  bool holds = true;
  Trace counterexample;  ///< path to the violating configuration
  ExploreStats stats;
};

/// Checks `invariant` at every reachable configuration (bounded by
/// options.step.loop_bound if set). The search runs stutter-free
/// (interp::TauCompress::kStutterFree, whatever options.step.tau_compress
/// says): it reaches every visible part a search at every step reaches,
/// one state per visible part on Peterson. The counterexample records its
/// step options and replays with replay_trace alone. DPOR is downgraded to
/// sleep sets: invariants observe intermediate global states, which only
/// the state-preserving reduction keeps intact.
[[nodiscard]] InvariantResult check_invariant(const lang::Program& program,
                                              const ConfigPredicate& invariant,
                                              ExploreOptions options = {});

struct ReachabilityResult {
  bool reachable = false;
  Trace witness;
  ExploreStats stats;
};

/// Searches for a terminated configuration satisfying `cond`, with silent
/// steps fused (kFused, whatever the caller set); the witness records its
/// step options and replays with replay_trace alone.
[[nodiscard]] ReachabilityResult check_reachable(const lang::Program& program,
                                                 const lang::CondPtr& cond,
                                                 ExploreOptions options = {});

/// One final-state observation: registers per thread plus the final
/// (mo-last) value of every variable.
struct Outcome {
  std::vector<std::vector<lang::Value>> regs;  ///< [thread-1][reg]
  std::vector<lang::Value> final_vars;         ///< [var]

  [[nodiscard]] std::string to_string(const lang::Program& p) const;
  auto operator<=>(const Outcome&) const = default;
};

struct OutcomeResult {
  std::set<Outcome> outcomes;
  ExploreStats stats;
};

/// The final observation of one terminated configuration (shared by the
/// sequential and parallel outcome enumerators).
[[nodiscard]] Outcome outcome_of(const interp::Config& c,
                                 const lang::Program& program);

/// All distinct final observations of the program, with silent steps
/// fused (kFused, whatever the caller set).
[[nodiscard]] OutcomeResult enumerate_outcomes(const lang::Program& program,
                                               ExploreOptions options = {});

/// Canonical-form fingerprints of every reachable terminated
/// configuration's execution, with silent steps fused (kFused, whatever
/// the caller set). With `pre_execution`, fingerprints of the ==>_PE
/// semantics instead, whose search never fuses silent steps.
[[nodiscard]] std::set<util::Fingerprint> collect_final_executions(
    const lang::Program& program, ExploreOptions options = {});

/// Data-race freedom (extension; c11/races.hpp): explores all executions
/// and reports the first race between a non-atomic access and a
/// conflicting unordered access. A racy program has undefined behaviour.
/// The race is found at a visited state, which the search counts (stats
/// include it) and `trace` leads to. With stats.truncated set and no race
/// found, the verdict is unknown, not race free. Runs at the caller's
/// step granularity (options.step.tau_compress, every step by default),
/// or fused under DPOR.
struct RaceResult {
  bool race_free = true;
  std::string race;  ///< description of the first race found
  Trace trace;
  ExploreStats stats;
};

[[nodiscard]] RaceResult check_race_free(const lang::Program& program,
                                         ExploreOptions options = {});

/// The test both race checkers run from Visitor::on_state: a race between
/// the newest event of `ex` and an older one. Init writes are skipped. hb
/// comes from the maintained cache, or from compute_derived while the cache
/// is invalid (the pre-execution semantics).
[[nodiscard]] std::optional<c11::DataRace> newest_event_race(
    const c11::Execution& ex);

}  // namespace rc11::mc
