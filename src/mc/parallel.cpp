#include "mc/parallel.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <cassert>
#include <chrono>
#include <functional>
#include <mutex>
#include <optional>
#include <thread>
#include <unordered_map>
#include <utility>

#include "c11/races.hpp"
#include "mc/cursor.hpp"
#include "mc/dpor.hpp"
#include "mc/independence.hpp"
#include "util/thread_pool.hpp"
#include "util/work_deque.hpp"

namespace rc11::mc {

namespace {

struct WorkItem {
  StateId id = kNoState;
  /// Step indices root -> this state. Items carry the path instead of a
  /// materialized Config: the owning worker usually pops its own children
  /// while its cursor still sits on the parent (one apply_step), and only
  /// a genuine deque steal — or a pop after the cursor wandered into a
  /// different subtree — replays the unshared suffix. This removes the
  /// per-transition Config copy from the expansion hot path.
  std::vector<std::uint32_t> path;
  SleepSet sleep;        ///< kSleepSets mode only
  bool revisit = false;  ///< re-expansion after a sleep-set intersection
};

/// Per-worker reporting counters, merged into the result with
/// ExploreStats::operator+= when the run finishes. Owner-written without
/// synchronization (heartbeats may sample them; monitoring only), padded so
/// neighbouring workers don't false-share.
struct alignas(64) WorkerTotals {
  ExploreStats stats;
};

/// Shared context of one work-stealing run.
struct ParallelRun {
  ParallelRun(const ExploreOptions& opts, std::size_t workers)
      : options(opts),
        por_sleep(opts.por == PorMode::kSleepSets),
        seen(workers),
        deques(workers),
        worker_stats(workers),
        totals(workers) {}

  ExploreOptions options;
  bool por_sleep;
  const lang::Program* program = nullptr;  ///< set by run_parallel
  AdaptiveSeenSet seen;
  util::WorkDeques<WorkItem> deques;
  std::vector<WorkerStats> worker_stats;
  /// Pure-reporting counters live here, one slab per worker, written by the
  /// owner only — no hot-path atomics. `states`, `transitions` and
  /// `truncated` stay atomic: max_states control flow and heartbeat rates
  /// need coherent cross-worker reads.
  std::vector<WorkerTotals> totals;

  /// Per-state sleep sets (Godefroid's state-caching rule), sharded by the
  /// fingerprint's shard bits. The shard mutex is taken as an outer lock
  /// around seen.insert for the same fingerprint, so "insert the state"
  /// and "publish / compare its stored sleep set" are one atomic step —
  /// without it a racing duplicate insert could read an absent entry as an
  /// empty (fully explored) sleep set and merge unsoundly.
  static constexpr std::size_t kSleepShards = 16;
  std::array<std::mutex, kSleepShards> sleep_mutexes;
  std::array<std::unordered_map<StateId, SleepSet>, kSleepShards> sleep_store;

  /// Items pushed but not yet fully expanded; 0 <=> exploration finished.
  std::atomic<std::size_t> pending{0};
  std::atomic<bool> stop{false};
  std::atomic<std::size_t> states{0};
  std::atomic<std::size_t> transitions{0};
  std::atomic<bool> truncated{false};

  /// First violating / witnessing state, for trace reconstruction.
  std::mutex hit_mutex;
  StateId hit_state = kNoState;
  bool hit_found = false;

  // Callbacks returning false record the hit and set stop.
  std::function<bool(const interp::Config&)> on_state;
  std::function<bool(const interp::Config&)> on_final;

  void record_hit(StateId id) {
    std::lock_guard lock(hit_mutex);
    if (!hit_found) {
      hit_found = true;
      hit_state = id;
    }
    stop.store(true, std::memory_order_release);
  }
};

void push_local(ParallelRun& run, std::size_t me, WorkItem item) {
  run.pending.fetch_add(1, std::memory_order_acq_rel);
  run.deques.push_local(me, std::move(item));
}

/// A worker's cursor (mc/cursor.hpp) with the step-index path it stands
/// on: path[k] indexes the step taken at depth k among the steps
/// enumerate_steps lists there.
struct PathCursor {
  Cursor at;
  std::vector<std::uint32_t> path;
};

/// Moves `cur` to the state `item` denotes: undo back to the longest common
/// prefix of the two paths, then replay the item's suffix. Deterministic
/// step enumeration guarantees the recorded indices select the same
/// transitions the pushing worker took (the property reconstruct_trace
/// already relies on). Local LIFO pops hit the one-level fast case; a steal
/// replays from the root the first time and shares prefixes afterwards.
void position(ParallelRun& run, PathCursor& cur, const WorkItem& item) {
  std::size_t k = 0;
  while (k < cur.path.size() && k < item.path.size() &&
         cur.path[k] == item.path[k]) {
    ++k;
  }
  cur.at.undo_to(k);
  cur.path.resize(k);
  thread_local std::vector<interp::Step> steps;
  for (std::size_t d = k; d < item.path.size(); ++d) {
    {
      obs::ScopedPhase enum_phase(obs::Phase::kEnumerate);
      interp::enumerate_steps(cur.at.config(), run.options.step, steps);
    }
    const std::uint32_t i = item.path[d];
    assert(i < steps.size());
    cur.at.apply(steps[i], run.options.step);
    cur.path.push_back(i);
  }
}

/// Expands one configuration: callbacks, then dedup-insert every successor
/// (recording its parent edge) and push the fresh ones locally. In sleep
/// mode, transitions slept on are pruned and each pushed item carries its
/// successor sleep set.
///
/// The hot path steps the worker's cursor *in place*: a successor gets its
/// thread half, is fingerprinted with its push pending and loses the thread
/// half again (Cursor::successor_fingerprint), so the expansion pushes no
/// event at all. Fresh states are pushed as path items (parent path + step
/// index) with no Config attached, so the handoff itself copies nothing.
/// The popping worker re-derives the state via position() — one apply in
/// the LIFO common case, a suffix replay after an actual deque steal.
void process(ParallelRun& run, std::size_t me, PathCursor& cur,
             WorkItem item) {
  WorkerStats& ws = run.worker_stats[me];
  ExploreStats& my = run.totals[me].stats;
  ++ws.processed;
  position(run, cur, item);
  interp::Config& config = cur.at.config();
  // The item was probed with the fingerprint its deferred push would
  // leave; position() has just run that push.
  assert(config.fingerprint() == run.seen.record(item.id).fp &&
         "the deferred push left another fingerprint than was probed");
  const std::size_t depth = item.path.size();
  my.max_depth = std::max<std::size_t>(my.max_depth, depth + 1);
  if (!item.revisit) {
    if (run.states.fetch_add(1, std::memory_order_relaxed) >=
        run.options.max_states) {
      run.truncated.store(true);
      run.stop.store(true);
      return;
    }
    if (run.on_state && !run.on_state(config)) {
      run.record_hit(item.id);
      return;
    }
    if (config.terminated()) {
      ++my.finals;
      if (run.on_final && !run.on_final(config)) {
        run.record_hit(item.id);
        return;
      }
    }
  }

  // Child items extend this item's path by one step index.
  const auto child_item = [&](StateId id, std::size_t step_index) {
    WorkItem w;
    w.id = id;
    w.path = item.path;
    w.path.push_back(static_cast<std::uint32_t>(step_index));
    return w;
  };

  // In-place expansion (per-worker buffers reused across items).
  thread_local std::vector<interp::Step> steps;
  thread_local std::vector<StepSig> sigs;
  {
    obs::ScopedPhase enum_phase(obs::Phase::kEnumerate);
    interp::enumerate_steps(config, run.options.step, steps);
    sigs.clear();
    if (run.por_sleep) sigs_of(steps, config.exec, sigs, config.has_sc_fence);
  }
  for (std::size_t i = 0; i < steps.size(); ++i) {
    if (run.por_sleep && sleep_contains(item.sleep, sigs[i])) {
      ++my.por_pruned;
      continue;
    }
    run.transitions.fetch_add(1, std::memory_order_relaxed);
    const util::Fingerprint fp =
        cur.at.successor_fingerprint(steps[i], run.options.step);
    if (!run.por_sleep) {
      InsertResult ins;
      {
        obs::ScopedPhase probe_phase(obs::Phase::kSeenProbe);
        ins = run.seen.insert(fp, item.id, static_cast<std::uint32_t>(i));
      }
      if (!ins.inserted) {
        ++my.merged;
        ++ws.merged;
      } else {
        ++ws.enqueued;
        push_local(run, me, child_item(ins.id, i));
      }
      continue;
    }
    SleepSet succ_sleep = successor_sleep(item.sleep, sigs, i);
    {
      const std::size_t shard =
          fp.shard_bits() & (ParallelRun::kSleepShards - 1);
      std::lock_guard sleep_lock(run.sleep_mutexes[shard]);
      InsertResult ins;
      {
        obs::ScopedPhase probe_phase(obs::Phase::kSeenProbe);
        ins = run.seen.insert(fp, item.id, static_cast<std::uint32_t>(i));
      }
      if (ins.inserted) {
        run.sleep_store[shard][ins.id] = succ_sleep;
        ++ws.enqueued;
        WorkItem w = child_item(ins.id, i);
        w.sleep = std::move(succ_sleep);
        push_local(run, me, std::move(w));
      } else {
        SleepSet& stored = run.sleep_store[shard][ins.id];
        if (is_subset(stored, succ_sleep)) {
          ++my.merged;
          ++ws.merged;
        } else {
          // Previously pruned transitions may now be required: re-expand
          // with the (strictly smaller) intersection. The stored set
          // shrinks on every re-expansion, so the run terminates.
          stored = intersection(stored, succ_sleep);
          ++ws.enqueued;
          WorkItem w = child_item(ins.id, i);
          w.sleep = stored;
          w.revisit = true;
          push_local(run, me, std::move(w));
        }
      }
    }
  }
}

/// Progress heartbeat: the winning worker samples the run counters. The
/// per-worker slabs are owner-written plain fields; sampling them here is
/// unsynchronized by design (monitoring only, no control flow depends on
/// the values).
void emit_heartbeat(ParallelRun& run) {
  obs::ProgressSnapshot snap;
  snap.states = run.states.load(std::memory_order_relaxed);
  snap.transitions = run.transitions.load(std::memory_order_relaxed);
  snap.frontier = run.pending.load(std::memory_order_relaxed);
  snap.seen_bytes = run.seen.bytes();
  for (const WorkerTotals& w : run.totals) {
    snap.finals += w.stats.finals;
    snap.sleep_blocked += w.stats.sleep_blocked;
    snap.redundant += w.stats.redundant_transitions;
    snap.max_depth = std::max(snap.max_depth, w.stats.max_depth);
  }
  snap.workers.reserve(run.worker_stats.size());
  for (const WorkerStats& ws : run.worker_stats) {
    snap.workers.push_back({ws.processed, ws.enqueued, ws.steals, ws.merged});
  }
  run.options.telemetry->emit(std::move(snap));
}

void worker_loop(ParallelRun& run, std::size_t me) {
  constexpr int kYieldRounds = 64;
  int idle_rounds = 0;
  obs::WorkerScope obs_scope(run.options.telemetry,
                             static_cast<std::uint32_t>(me));
  PathCursor cur{Cursor(interp::initial_config(*run.program)), {}};
  while (true) {
    if (run.stop.load(std::memory_order_acquire)) return;
    std::optional<WorkItem> item = run.deques.pop_local(me);
    if (!item) {
      item = run.deques.steal(me);
      if (item) {
        ++run.worker_stats[me].steals;
        obs::instant_event("steal");
      }
    }
    if (!item) {
      if (run.pending.load(std::memory_order_acquire) == 0) return;
      // Back off while other workers drain a narrow frontier: a few
      // yields, then short sleeps, so idle workers do not burn cores.
      if (++idle_rounds <= kYieldRounds) {
        std::this_thread::yield();
      } else {
        std::this_thread::sleep_for(std::chrono::microseconds(100));
      }
      continue;
    }
    idle_rounds = 0;
    process(run, me, cur, *std::move(item));
    run.pending.fetch_sub(1, std::memory_order_acq_rel);
    if (run.options.telemetry != nullptr &&
        run.options.telemetry->heartbeat_due()) {
      emit_heartbeat(run);
    }
  }
}

ExploreStats run_parallel(const lang::Program& program, ParallelRun& run) {
  const std::size_t workers = run.deques.worker_count();
  run.program = &program;
  interp::Config start = interp::initial_config(program);
  interp::prepare_cache(start);
  const util::Fingerprint root_fp = start.fingerprint();
  const InsertResult root = run.seen.insert(root_fp);
  if (run.por_sleep) {
    const std::size_t shard =
        root_fp.shard_bits() & (ParallelRun::kSleepShards - 1);
    run.sleep_store[shard][root.id] = {};
  }
  push_local(run, 0, WorkItem{root.id});

  {
    util::ThreadPool pool(workers);
    for (std::size_t k = 0; k < workers; ++k) {
      pool.submit([&run, k] { worker_loop(run, k); });
    }
    pool.wait_idle();
  }

  ExploreStats stats;
  // Per-worker reporting slabs merge via ExploreStats::operator+=; the
  // shared/atomic pieces are set once on the merged result afterwards.
  for (const WorkerTotals& w : run.totals) stats += w.stats;
  stats.states = run.states.load();
  stats.transitions = run.transitions.load();
  stats.truncated = run.truncated.load();
  stats.peak_seen_bytes = run.seen.bytes();
  return stats;
}

/// Rebuilds the path root -> `leaf` from the parent records and replays it
/// through enumerate_steps(), which enumerates steps deterministically —
/// the recorded step indices select the same transitions the explorer
/// took.
Trace reconstruct_trace(const ParallelRun& run, const lang::Program& program,
                        StateId leaf) {
  if (leaf == kNoState) return {};
  std::vector<std::uint32_t> step_indices;
  for (StateId id = leaf;;) {
    const StateRecord rec = run.seen.record(id);
    if (rec.parent == kNoState) break;
    step_indices.push_back(rec.step);
    id = rec.parent;
  }
  std::reverse(step_indices.begin(), step_indices.end());

  Trace trace;
  trace.step = run.options.step;
  interp::Config c = interp::initial_config(program);
  std::vector<interp::Step> steps;
  for (std::uint32_t i : step_indices) {
    interp::enumerate_steps(c, run.options.step, steps);
    if (i >= steps.size()) break;  // defensive; cannot happen on a real run
    trace.entries.push_back(make_entry(steps[i]));
    (void)interp::apply_step(c, steps[i], run.options.step);  // forward only
  }
  return trace;
}

std::size_t worker_count(const ParallelOptions& options) {
  return options.workers == 0 ? 1 : options.workers;
}

/// The options of the final-state queries, which read terminated
/// configurations only and so fuse silent steps (see checker.hpp).
ExploreOptions fused(ExploreOptions options) {
  options.step.tau_compress = interp::TauCompress::kFused;
  return options;
}

void export_info(const ParallelRun& run, ParallelRunInfo* info) {
  if (info != nullptr) info->workers = run.worker_stats;
}

/// Runs the work-stealing source-set DPOR engine for the parallel
/// checkers.
ExploreResult run_dpor(const lang::Program& program,
                       const ParallelOptions& options, const Visitor& visitor,
                       ParallelRunInfo* info) {
  return explore_dpor(interp::initial_config(program), options.explore,
                      visitor, worker_count(options),
                      info != nullptr ? &info->workers : nullptr);
}

/// A race of the execution the reported trace leads to (the checker stops
/// at the visited state whose newest event races, so one exists).
std::string race_of_trace(const lang::Program& program, const Trace& trace) {
  const auto final_config = replay_trace(program, trace);
  if (!final_config) return "<race trace failed to replay>";
  const auto race = c11::find_race(final_config->exec);
  if (!race) return "<race not found on replay>";
  return race->to_string(final_config->exec, &program.vars());
}

}  // namespace

InvariantResult check_invariant_parallel(const lang::Program& program,
                                         const ConfigPredicate& invariant,
                                         const ParallelOptions& options,
                                         ParallelRunInfo* info) {
  ExploreOptions eopts = options.explore;
  // Stutters and allowed unfoldings change no pc, register or termination
  // (as check_invariant).
  eopts.step.tau_compress = interp::TauCompress::kStutterFree;
  // DPOR may skip intermediate global states; invariants need the
  // state-preserving reduction (same downgrade as check_invariant).
  if (is_dpor(eopts.por)) eopts.por = PorMode::kSleepSets;
  ParallelRun run(eopts, worker_count(options));
  run.on_state = [&](const interp::Config& c) { return invariant(c); };

  InvariantResult result;
  result.stats = run_parallel(program, run);
  result.holds = !run.hit_found;
  if (run.hit_found) {
    result.counterexample = reconstruct_trace(run, program, run.hit_state);
  }
  export_info(run, info);
  return result;
}

ReachabilityResult check_reachable_parallel(const lang::Program& program,
                                            const lang::CondPtr& cond,
                                            const ParallelOptions& options,
                                            ParallelRunInfo* info) {
  ReachabilityResult result;
  if (is_dpor(options.explore.por)) {
    Visitor visitor;
    visitor.on_final = [&](const interp::Config& c) {
      return !interp::eval_cond(cond, c);
    };
    ExploreResult er = run_dpor(program, options, visitor, info);
    result.stats = er.stats;
    result.reachable = er.aborted;
    if (er.aborted) result.witness = std::move(er.abort_trace);
    return result;
  }

  ParallelRun run(fused(options.explore), worker_count(options));
  run.on_final = [&](const interp::Config& c) {
    return !interp::eval_cond(cond, c);
  };
  result.stats = run_parallel(program, run);
  result.reachable = run.hit_found;
  if (run.hit_found) {
    result.witness = reconstruct_trace(run, program, run.hit_state);
  }
  export_info(run, info);
  return result;
}

OutcomeResult enumerate_outcomes_parallel(const lang::Program& program,
                                          const ParallelOptions& options,
                                          ParallelRunInfo* info) {
  OutcomeResult result;
  std::mutex outcomes_mutex;
  const auto collect = [&](const interp::Config& c) {
    Outcome o = outcome_of(c, program);
    std::lock_guard lock(outcomes_mutex);
    result.outcomes.insert(std::move(o));
    return true;
  };
  if (is_dpor(options.explore.por)) {
    Visitor visitor;
    visitor.on_final = collect;
    result.stats = run_dpor(program, options, visitor, info).stats;
    return result;
  }
  ParallelRun run(fused(options.explore), worker_count(options));
  run.on_final = collect;
  result.stats = run_parallel(program, run);
  export_info(run, info);
  return result;
}

RaceResult check_race_free_parallel(const lang::Program& program,
                                    const ParallelOptions& options,
                                    ParallelRunInfo* info) {
  RaceResult result;
  // The newest-event test of check_race_free (see there for why it finds
  // every racy program), run from on_state by every worker.
  const auto race_free_state = [](const interp::Config& c) {
    return !newest_event_race(c.exec).has_value();
  };

  if (is_dpor(options.explore.por)) {
    Visitor visitor;
    visitor.on_state = race_free_state;
    ExploreResult er = run_dpor(program, options, visitor, info);
    result.stats = er.stats;
    result.race_free = !er.aborted;
    if (er.aborted) {
      result.trace = std::move(er.abort_trace);
      result.race = race_of_trace(program, result.trace);
    }
    return result;
  }

  ParallelRun run(options.explore, worker_count(options));
  run.on_state = race_free_state;
  result.stats = run_parallel(program, run);
  result.race_free = !run.hit_found;
  if (run.hit_found) {
    result.trace = reconstruct_trace(run, program, run.hit_state);
    result.race = race_of_trace(program, result.trace);
  }
  export_info(run, info);
  return result;
}

std::set<util::Fingerprint> collect_final_executions_parallel(
    const lang::Program& program, const ParallelOptions& options,
    ParallelRunInfo* info) {
  std::set<util::Fingerprint> keys;
  std::mutex keys_mutex;
  const auto collect = [&](const interp::Config& c) {
    const util::Fingerprint fp = c.exec.fingerprint();
    std::lock_guard lock(keys_mutex);
    keys.insert(fp);
    return true;
  };
  if (is_dpor(options.explore.por)) {
    Visitor visitor;
    visitor.on_final = collect;
    (void)run_dpor(program, options, visitor, info);
    return keys;
  }
  ParallelRun run(fused(options.explore), worker_count(options));
  run.on_final = collect;
  (void)run_parallel(program, run);
  export_info(run, info);
  return keys;
}

}  // namespace rc11::mc
