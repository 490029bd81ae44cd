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
#pragma once

#include <map>
#include <set>
#include <string>
#include <vector>

#include "c11/races.hpp"
#include "mc/explorer.hpp"

namespace rc11::mc {

using ConfigPredicate = std::function<bool(const interp::Config&)>;

struct InvariantResult {
  bool holds = true;
  Trace counterexample;  ///< path to the violating configuration
  ExploreStats stats;
};

/// Checks `invariant` at every reachable configuration (bounded by
/// options.step.loop_bound if set). tau compression is forced OFF so that
/// intermediate pcs are observed. DPOR por modes are downgraded to sleep
/// sets: invariants observe intermediate global states, which only the
/// state-preserving reduction keeps intact.
[[nodiscard]] InvariantResult check_invariant(const lang::Program& program,
                                              const ConfigPredicate& invariant,
                                              ExploreOptions options = {});

struct ReachabilityResult {
  bool reachable = false;
  Trace witness;
  ExploreStats stats;
};

/// Searches for a terminated configuration satisfying `cond`.
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

/// All distinct final observations of the program.
[[nodiscard]] OutcomeResult enumerate_outcomes(const lang::Program& program,
                                               ExploreOptions options = {});

/// Canonical-form fingerprints of every reachable terminated
/// configuration's execution. With `pre_execution`, fingerprints of the
/// ==>_PE semantics instead.
[[nodiscard]] std::set<util::Fingerprint> collect_final_executions(
    const lang::Program& program, ExploreOptions options = {});

/// Data-race freedom (extension; c11/races.hpp): explores all executions
/// and reports the first race between a non-atomic access and a
/// conflicting unordered access. A racy program has undefined behaviour.
/// The race is found at a visited state, which the search counts (stats
/// include it) and `trace` leads to. With stats.truncated set and no race
/// found, the verdict is unknown, not race free.
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
