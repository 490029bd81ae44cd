// Source-set dynamic partial-order reduction (Abdulla, Aronis, Jonsson,
// Sagonas — the algorithm family PAPERS.md's "Parsimonious Optimal Dynamic
// Partial Order Reduction" refines), instantiated for the interpreted RA
// semantics.
//
// The engine explores the *transition tree* (per-node scheduling state is
// path-dependent), scheduling at each node only a dynamically grown source
// set of threads, and merges revisits statefully:
//
//   * expanding a node runs ALL enabled transitions of one scheduled
//     thread (value nondeterminism — which write a read observes, where a
//     write lands in mo — is data nondeterminism within the thread and is
//     always fully explored);
//   * after executing a step t, every *reversible race* on the spine is
//     detected: an earlier step e of another thread, dependent with t
//     (mc/independence.hpp), with no intermediate happens-before chain
//     e ->hb e'' ->hb t. For each such race at spine prefix E'', the
//     initials of v = notdep(e, E).t are computed and, unless one is
//     already scheduled at E'', one of them is inserted as a backtrack
//     point (stats.backtracks);
//   * sleep sets filter on top: a transition independent with the step
//     taken stays asleep in the child when an earlier-executed sibling
//     subtree already covers it; sleeping transitions are never run (they
//     are counted in stats.por_pruned, and a node whose every transition
//     sleeps in stats.sleep_blocked);
//   * a node is *complete* once nothing more runs in its subtree. A
//     visit that completes publishes a record for its state: its arrival
//     sleep set, the signatures enabled there, and the summary of every
//     signature executed below it (after Yang, Chen, Gopalakrishnan and
//     Kirby, "Efficient Stateful Dynamic Partial Order Reduction"). A
//     revisit of a state whose record is complete and sleeps on a subset
//     of the revisit's sleep set is a leaf (Godefroid's state-caching
//     rule for sleep sets); it replays, against its own spine, the races
//     its subtree would have found, from the record's summary. Any other
//     revisit expands like a first visit. src/mc/README.md argues the
//     rule's soundness.
//
// Soundness (differentially asserted by tests/test_dpor.cpp over the
// litmus catalogue and the fuzz generator): every Mazurkiewicz trace of
// every maximal execution is explored at least once (through a pruned
// revisit, it continues in its state's first complete visit), so
// reachability verdicts on terminated configurations, final-state
// fingerprint sets, outcome sets and race existence all agree with full
// exploration.
// Intermediate global states may be skipped — invariant checking must not
// use this mode (checker.cpp downgrades to sleep sets).
//
// Tree nodes are step paths: a node keeps its parent, its incoming step
// and its scheduling state, never a configuration. Expanding a scheduled
// (node, thread) pair needs only signatures — race reversal, the child's
// hb row and its sleep set — and queues each child to *arrive* later.
// When a worker pops an arrival, it moves its own cursor (mc/cursor.hpp)
// onto the child, undoing to the prefix they share and replaying the
// spine's incoming steps, and visits the configuration there: seen set,
// visitor callbacks, step enumeration, sleep tallies, first thread.
//
// The same engine runs sequentially (workers = 1: plain LIFO, fully
// deterministic — DPOR counterexamples replay) and in parallel (work
// items carry their node; per-node backtrack/sleep state lives in the
// shared node objects behind a mutex, so stolen subtrees remain sound:
// race reversals discovered in a stolen subtree insert backtrack points
// into ancestor nodes that are kept alive by the spine's PoolRef chain,
// and an insertion into an ancestor another worker has long finished
// simply enqueues a fresh work item for it). Completion counts are atomic,
// and records live in one flat array per seen-set shard behind that
// shard's lock; a subtree still running on another worker is not complete,
// so a revisit of it expands.
#pragma once

#include <vector>

#include "mc/explorer.hpp"

namespace rc11::mc {

/// Runs source-set DPOR with the sleep-set filter from `start`, whatever
/// `options.por` says. With workers > 1 the tree is explored by
/// work-stealing on util::ThreadPool and the visitor callbacks must be
/// thread-safe; `worker_stats`, when non-null, receives per-worker
/// counters.
///
/// The engine always forces step.tau_compress = kFused: scheduling points
/// are visible (memory) steps; deterministic silent/register steps and the
/// loop unfoldings step.loop_bound allows are fused into the preceding
/// transition (an unbounded search keeps its unfoldings visible). Every
/// query runs at this granularity under DPOR, the race query included.
/// Returned traces record these step options (Trace::step), so
/// replay_trace replays them as they are.
///
/// The engine runs the ==>_RA semantics only: `options.pre_execution` is
/// ignored (explore_from runs a pre-execution search under sleep sets
/// instead). A Visitor::on_transition hook costs one copy of the parent
/// configuration per transition. `start` moves into worker 0's cursor;
/// every further worker's cursor copies it.
[[nodiscard]] ExploreResult explore_dpor(
    interp::Config start, const ExploreOptions& options,
    const Visitor& visitor, std::size_t workers = 1,
    std::vector<WorkerStats>* worker_stats = nullptr);

}  // namespace rc11::mc
