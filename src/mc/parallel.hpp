// Parallel state-space exploration.
//
// A work-stealing explorer runs one long-lived task per worker on
// util::ThreadPool. Each worker owns a deque of pending configurations,
// pops from its own back (depth-first, cache-friendly) and steals from
// other workers' fronts (breadth-ish, good load spread) when empty. All
// workers share one fingerprint table (ConcurrentSeenSet) whose
// parent-pointer records — (parent StateId, successor index) per state —
// let the checkers reconstruct a real counterexample / witness trace after
// the fact by deterministically replaying enumerate_steps() along the
// parent chain. Per-worker statistics (states processed, steals, enqueues)
// are reported through ParallelRunInfo.
//
// The explorer is POR-aware (ExploreOptions::por):
//
//   * kSleepSets — every deque entry carries its own sleep set, so stolen
//     items stay sound; the per-state stored sets (Godefroid's
//     state-caching rule) live in a sharded map keyed like the seen set,
//     and a revisit with an incomparable sleep set re-enqueues the state
//     for re-expansion with the intersection. State-preserving: sequential
//     and parallel sleep-set runs visit identical state sets.
//   * kSourceSetsSleep — the queries below delegate to the work-stealing
//     source-set DPOR engine (dpor.hpp), whose work items carry their tree
//     node; per-node backtrack/sleep state lives in the shared node
//     objects, so race reversals discovered in stolen subtrees insert
//     backtrack points into ancestors soundly.
//     check_invariant_parallel downgrades it to kSleepSets (invariants
//     observe intermediate states).
//
// Each query explores at the granularity of its sequential counterpart
// (checker.hpp): reachability, outcomes and final executions fuse silent
// steps, invariants fuse stutters only (interp::TauCompress::kStutterFree),
// and the race query honours explore.step.tau_compress outside DPOR.
//
// On a single-core host this demonstrates correctness rather than speedup;
// bench_parallel reports the scaling measured on the build machine.
#pragma once

#include <cstddef>
#include <set>
#include <string>
#include <vector>

#include "mc/checker.hpp"

namespace rc11::mc {

struct ParallelOptions {
  /// Note: the parallel explorer always deduplicates in the non-DPOR modes
  /// (the parent-pointer records require unique states) and only runs the
  /// ==>_RA semantics, so explore.dedup and explore.pre_execution are
  /// ignored; use the sequential explorer for those ablations.
  /// explore.por is honoured — see the file comment.
  ExploreOptions explore;
  std::size_t workers = 4;
};

struct ParallelRunInfo {
  std::vector<WorkerStats> workers;
};

/// Parallel version of check_invariant, stutter-free like it. Returns a
/// real counterexample trace, reconstructed from the seen set's parent
/// pointers (violating state -> root) and replayed through
/// enumerate_steps() at that granularity; when several workers race to a
/// violation, the first one reported wins.
[[nodiscard]] InvariantResult check_invariant_parallel(
    const lang::Program& program, const ConfigPredicate& invariant,
    const ParallelOptions& options = {}, ParallelRunInfo* info = nullptr);

/// Parallel version of check_reachable, with silent steps fused; the
/// witness trace is reconstructed the same way.
[[nodiscard]] ReachabilityResult check_reachable_parallel(
    const lang::Program& program, const lang::CondPtr& cond,
    const ParallelOptions& options = {}, ParallelRunInfo* info = nullptr);

/// Parallel outcome enumeration, with silent steps fused: all distinct
/// final observations, collected from every worker. Agrees with
/// enumerate_outcomes on the same options.
[[nodiscard]] OutcomeResult enumerate_outcomes_parallel(
    const lang::Program& program, const ParallelOptions& options = {},
    ParallelRunInfo* info = nullptr);

/// Parallel version of check_race_free: explores all executions (under the
/// selected POR mode) and reports a race between a non-atomic access and a
/// conflicting unordered access, with a replayable trace. Like the
/// sequential checker, every worker tests each visited state's newest
/// event; a race is reported at a visited state, which the stats count and
/// the trace leads to. Which of several races is reported depends on
/// worker scheduling; the verdict does not.
[[nodiscard]] RaceResult check_race_free_parallel(
    const lang::Program& program, const ParallelOptions& options = {},
    ParallelRunInfo* info = nullptr);

/// Parallel version of collect_final_executions, with silent steps fused:
/// canonical-form fingerprints of every reachable terminated
/// configuration's execution.
/// Agrees with the sequential collector in every POR mode (the
/// differential-oracle property tests/test_dpor.cpp enforces).
[[nodiscard]] std::set<util::Fingerprint> collect_final_executions_parallel(
    const lang::Program& program, const ParallelOptions& options = {},
    ParallelRunInfo* info = nullptr);

}  // namespace rc11::mc
