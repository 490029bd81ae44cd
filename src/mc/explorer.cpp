#include "mc/explorer.hpp"

#include <algorithm>
#include <unordered_map>
#include <vector>

#include "mc/dpor.hpp"
#include "mc/independence.hpp"
#include "mc/optimal.hpp"

namespace rc11::mc {

namespace {

// ===========================================================================
// Materialized DFS (from-scratch oracle path).
//
// Kept for the cases the in-place spine cannot serve: visitors that observe
// ConfigStep.next (on_transition materializes every successor by contract)
// and the pre-execution semantics (whose steps are built by pe_successors).
// Everything else goes through the incremental spine below.
// ===========================================================================

struct MatFrame {
  interp::Config config;
  std::vector<interp::ConfigStep> steps;
  std::vector<StepSig> sigs;  ///< sig per step (only filled when por is on)
  std::size_t next_step = 0;
  TraceEntry incoming;  // transition that entered this frame
  StateId id = kNoState;
  SleepSet sleep;
};

std::vector<interp::ConfigStep> expand(const interp::Config& c,
                                       const ExploreOptions& options) {
  if (options.pre_execution) {
    return interp::pe_successors(c, interp::value_domain(*c.program),
                                 options.step);
  }
  return interp::successors(c, options.step);
}

ExploreResult explore_materialized(const interp::Config& start,
                                   const ExploreOptions& options,
                                   const Visitor& visitor) {
  const bool por = options.por == PorMode::kSleepSets;

  ExploreResult result;
  SeenSet seen;
  // Sleep set each visited state was last explored with (por only). A
  // revisit with a sleep set that is NOT a superset of the stored one may
  // enable transitions pruned before, so the state is re-expanded with the
  // intersection (Godefroid's state-caching rule); the stored set shrinks
  // strictly on every re-expansion, so the search terminates.
  std::unordered_map<StateId, SleepSet> sleep_store;

  auto build_trace = [](const std::vector<MatFrame>& stack) {
    Trace t;
    // Frame 0 is the initial configuration; its incoming entry is empty.
    for (std::size_t i = 1; i < stack.size(); ++i) {
      t.entries.push_back(stack[i].incoming);
    }
    return t;
  };

  std::vector<MatFrame> stack;

  auto visit_state = [&](const interp::Config& c) -> bool {
    ++result.stats.states;
    if (options.telemetry != nullptr && options.telemetry->heartbeat_due()) {
      obs::ProgressSnapshot snap;
      snap.states = result.stats.states;
      snap.transitions = result.stats.transitions;
      snap.finals = result.stats.finals;
      snap.max_depth = result.stats.max_depth;
      snap.frontier = stack.size();
      snap.seen_bytes = options.dedup ? seen.bytes() : 0;
      snap.sleep_blocked = result.stats.sleep_blocked;
      options.telemetry->emit(std::move(snap));
    }
    if (visitor.on_state && !visitor.on_state(c)) return false;
    if (c.terminated()) {
      ++result.stats.finals;
      if (visitor.on_final && !visitor.on_final(c)) return false;
    }
    return true;
  };

  auto finish_stats = [&] {
    result.stats.peak_seen_bytes = options.dedup ? seen.bytes() : 0;
    // With POR the per-state stored sleep sets are part of the dedup
    // footprint; count them so the memory report stays honest.
    for (const auto& [id, sleep] : sleep_store) {
      (void)id;
      result.stats.peak_seen_bytes +=
          sizeof(std::pair<const StateId, SleepSet>) + 2 * sizeof(void*) +
          sleep.capacity() * sizeof(StepSig);
    }
  };

  auto prepare_frame = [&](MatFrame& f) {
    obs::ScopedPhase enum_phase(obs::Phase::kEnumerate);
    f.steps = expand(f.config, options);
    if (por) sigs_of(f.steps, f.config.exec, f.sigs, f.config.has_sc_fence);
  };

  {
    MatFrame root;
    root.config = start;
    if (options.dedup) {
      obs::ScopedPhase probe_phase(obs::Phase::kSeenProbe);
      root.id = seen.insert(root.config.fingerprint()).id;
    }
    if (!visit_state(root.config)) {
      result.aborted = true;
      finish_stats();
      return result;
    }
    prepare_frame(root);
    if (por) sleep_store[root.id] = {};
    stack.push_back(std::move(root));
  }

  while (!stack.empty()) {
    result.stats.max_depth = std::max(result.stats.max_depth, stack.size());
    MatFrame& top = stack.back();
    if (top.next_step >= top.steps.size()) {
      stack.pop_back();
      continue;
    }
    const std::size_t step_index = top.next_step++;
    if (por && sleep_contains(top.sleep, top.sigs[step_index])) {
      ++result.stats.por_pruned;
      continue;
    }
    interp::ConfigStep step = std::move(top.steps[step_index]);
    ++result.stats.transitions;

    if (visitor.on_transition && !visitor.on_transition(top.config, step)) {
      result.aborted = true;
      result.abort_trace = build_trace(stack);
      result.abort_trace.entries.push_back(make_entry(step));
      finish_stats();
      return result;
    }

    MatFrame frame;
    if (por) frame.sleep = successor_sleep(top.sleep, top.sigs, step_index);
    bool revisit = false;
    if (options.dedup) {
      InsertResult ins;
      {
        obs::ScopedPhase probe_phase(obs::Phase::kSeenProbe);
        ins = seen.insert(step.next.fingerprint(), top.id,
                          static_cast<std::uint32_t>(step_index));
      }
      frame.id = ins.id;
      if (!ins.inserted) {
        if (!por) {
          ++result.stats.merged;
          continue;
        }
        SleepSet& stored = sleep_store[ins.id];
        if (is_subset(stored, frame.sleep)) {
          // Already explored at least this much: safe to merge.
          ++result.stats.merged;
          continue;
        }
        // Previously pruned transitions may now be required: re-expand
        // with the (strictly smaller) intersection.
        stored = intersection(stored, frame.sleep);
        frame.sleep = stored;
        revisit = true;
      } else if (por) {
        sleep_store[ins.id] = frame.sleep;
      }
    }

    if (!revisit && result.stats.states >= options.max_states) {
      result.stats.truncated = true;
      finish_stats();
      return result;
    }

    frame.incoming = make_entry(step);
    frame.config = std::move(step.next);
    if (!revisit && !visit_state(frame.config)) {
      result.aborted = true;
      result.abort_trace = build_trace(stack);
      result.abort_trace.entries.push_back(frame.incoming);
      finish_stats();
      return result;
    }
    prepare_frame(frame);
    stack.push_back(std::move(frame));
  }
  finish_stats();
  return result;
}

// ===========================================================================
// Incremental spine DFS (the hot path).
//
// One Config is mutated in place along the DFS spine: descending applies
// the chosen step (apply_step), backtracking undoes it (undo_step). No
// successor is ever materialized — a candidate is applied, fingerprinted,
// and immediately undone when the seen set merges it. Frames are pooled
// (the stack never shrinks its storage), so the per-node successor buffers
// are reused across the whole search.
// ===========================================================================

struct SpineFrame {
  std::vector<interp::Step> steps;
  std::vector<StepSig> sigs;  ///< only filled when por is on
  std::size_t next_step = 0;
  /// Index (into the parent frame's steps) of the transition that entered
  /// this frame; trace entries are rendered lazily on the abort path only
  /// (make_entry allocates a formatted note per entry).
  std::size_t in_index = 0;
  StateId id = kNoState;
  SleepSet sleep;
  interp::StepUndo undo;  ///< undo record of the incoming transition
};

ExploreResult explore_incremental(const interp::Config& start,
                                  const ExploreOptions& options,
                                  const Visitor& visitor) {
  const bool por = options.por == PorMode::kSleepSets;

  ExploreResult result;
  SeenSet seen;
  std::unordered_map<StateId, SleepSet> sleep_store;
  const interp::StepEnumCounters enum_base = interp::step_enum_counters();

  interp::Config cur = start;  // the spine configuration

  // Frame pool: frames at depth <= high-water mark keep their buffers.
  std::vector<SpineFrame> stack;
  std::size_t depth = 0;  // frames in use = depth + 1
  const auto frame = [&](std::size_t d) -> SpineFrame& {
    if (d >= stack.size()) stack.resize(d + 1);
    return stack[d];
  };

  auto build_trace = [&](std::size_t upto_depth) {
    Trace t;
    // Frame 0 is the initial configuration; frame i was entered by its
    // parent's step in_index.
    for (std::size_t i = 1; i <= upto_depth; ++i) {
      t.entries.push_back(make_entry(stack[i - 1].steps[stack[i].in_index]));
    }
    return t;
  };

  auto visit_state = [&](const interp::Config& c) -> bool {
    ++result.stats.states;
    if (options.telemetry != nullptr && options.telemetry->heartbeat_due()) {
      obs::ProgressSnapshot snap;
      snap.states = result.stats.states;
      snap.transitions = result.stats.transitions;
      snap.finals = result.stats.finals;
      snap.max_depth = result.stats.max_depth;
      snap.frontier = depth + 1;
      snap.seen_bytes = options.dedup ? seen.bytes() : 0;
      snap.sleep_blocked = result.stats.sleep_blocked;
      options.telemetry->emit(std::move(snap));
    }
    if (visitor.on_state && !visitor.on_state(c)) return false;
    if (c.terminated()) {
      ++result.stats.finals;
      if (visitor.on_final && !visitor.on_final(c)) return false;
    }
    return true;
  };

  auto finish_stats = [&] {
    const interp::StepEnumCounters& ec = interp::step_enum_counters();
    result.stats.enum_threads_reused = ec.reused - enum_base.reused;
    result.stats.enum_threads_recomputed =
        ec.recomputed - enum_base.recomputed;
    result.stats.peak_seen_bytes = options.dedup ? seen.bytes() : 0;
    for (const auto& [id, sleep] : sleep_store) {
      (void)id;
      result.stats.peak_seen_bytes +=
          sizeof(std::pair<const StateId, SleepSet>) + 2 * sizeof(void*) +
          sleep.capacity() * sizeof(StepSig);
    }
  };

  auto prepare_frame = [&](SpineFrame& f) {
    f.next_step = 0;
    f.sigs.clear();
    obs::ScopedPhase enum_phase(obs::Phase::kEnumerate);
    interp::enumerate_steps(cur, options.step, f.steps);
    if (por) sigs_of(f.steps, cur.exec, f.sigs, cur.has_sc_fence);
  };

  {
    SpineFrame& root = frame(0);
    root.id = kNoState;
    root.sleep.clear();
    if (options.dedup) {
      obs::ScopedPhase probe_phase(obs::Phase::kSeenProbe);
      root.id = seen.insert(cur.fingerprint()).id;
    }
    if (!visit_state(cur)) {
      result.aborted = true;
      finish_stats();
      return result;
    }
    prepare_frame(root);
    if (por) sleep_store[root.id] = {};
  }

  while (true) {
    result.stats.max_depth = std::max(result.stats.max_depth, depth + 1);
    SpineFrame& top = frame(depth);
    if (top.next_step >= top.steps.size()) {
      if (depth == 0) break;
      {
        obs::ScopedPhase undo_phase(obs::Phase::kUndo);
        undo_step(cur, top.undo);
      }
      --depth;
      continue;
    }
    const std::size_t step_index = top.next_step++;
    if (por && sleep_contains(top.sleep, top.sigs[step_index])) {
      ++result.stats.por_pruned;
      continue;
    }
    ++result.stats.transitions;

    // Apply in place; the successor's frame owns the undo record. NOTE:
    // frame() may grow the pool and invalidate `top` — from here on the
    // current frame is re-fetched as frame(depth).
    SpineFrame& nf = frame(depth + 1);
    {
      obs::ScopedPhase apply_phase(obs::Phase::kApply);
      (void)interp::apply_step(cur, frame(depth).steps[step_index],
                               options.step, nf.undo);
    }

    nf.id = kNoState;
    nf.sleep.clear();
    if (por) {
      nf.sleep =
          successor_sleep(frame(depth).sleep, frame(depth).sigs, step_index);
    }
    bool revisit = false;
    if (options.dedup) {
      InsertResult ins;
      {
        obs::ScopedPhase probe_phase(obs::Phase::kSeenProbe);
        ins = seen.insert(cur.fingerprint(), frame(depth).id,
                          static_cast<std::uint32_t>(step_index));
      }
      nf.id = ins.id;
      if (!ins.inserted) {
        if (!por) {
          ++result.stats.merged;
          obs::ScopedPhase undo_phase(obs::Phase::kUndo);
          undo_step(cur, nf.undo);
          continue;
        }
        SleepSet& stored = sleep_store[ins.id];
        if (is_subset(stored, nf.sleep)) {
          ++result.stats.merged;
          obs::ScopedPhase undo_phase(obs::Phase::kUndo);
          undo_step(cur, nf.undo);
          continue;
        }
        stored = intersection(stored, nf.sleep);
        nf.sleep = stored;
        revisit = true;
      } else if (por) {
        sleep_store[ins.id] = nf.sleep;
      }
    }

    if (!revisit && result.stats.states >= options.max_states) {
      result.stats.truncated = true;
      finish_stats();
      return result;
    }

    nf.in_index = step_index;
    if (!revisit && !visit_state(cur)) {
      result.aborted = true;
      result.abort_trace = build_trace(depth);
      result.abort_trace.entries.push_back(
          make_entry(frame(depth).steps[step_index]));
      finish_stats();
      return result;
    }
    ++depth;
    prepare_frame(frame(depth));
  }
  finish_stats();
  return result;
}

}  // namespace

ExploreResult explore(const lang::Program& program,
                      const ExploreOptions& options, const Visitor& visitor) {
  return explore_from(interp::initial_config(program), options, visitor);
}

const char* por_mode_name(PorMode m) {
  switch (m) {
    case PorMode::kNone:
      return "none";
    case PorMode::kSleepSets:
      return "sleep";
    case PorMode::kSourceSets:
      return "source";
    case PorMode::kSourceSetsSleep:
      return "source-sleep";
    case PorMode::kOptimal:
      return "optimal";
    case PorMode::kOptimalParsimonious:
      return "optimal-parsimonious";
  }
  return "unknown";
}

std::optional<PorMode> por_mode_from_name(std::string_view name) {
  for (const PorMode m :
       {PorMode::kNone, PorMode::kSleepSets, PorMode::kSourceSets,
        PorMode::kSourceSetsSleep, PorMode::kOptimal,
        PorMode::kOptimalParsimonious}) {
    if (name == por_mode_name(m)) return m;
  }
  return std::nullopt;
}

ExploreResult explore_from(const interp::Config& start,
                           const ExploreOptions& options,
                           const Visitor& visitor) {
  // The DPOR modes run tree-shaped with their own engines (dpor.cpp for
  // the stateless source-set family, optimal.cpp for wakeup trees).
  if (is_optimal_dpor(options.por)) {
    return explore_optimal(start, options, visitor, /*workers=*/1);
  }
  if (is_source_dpor(options.por) && !options.pre_execution) {
    return explore_dpor(start, options, visitor, /*workers=*/1);
  }
  // The source-set engine replays ==>_RA steps on its cursors, so a
  // pre-execution search runs under sleep sets instead: that reduction
  // keeps every state (the same downgrade check_invariant applies).
  ExploreOptions opts = options;
  if (is_source_dpor(opts.por)) opts.por = PorMode::kSleepSets;
  // on_transition contracts a materialized ConfigStep per transition, and
  // the pre-execution semantics enumerates through pe_successors; both go
  // through the copying oracle path. No query in checker.hpp hooks
  // on_transition (the race query checks each visited state's newest event
  // from on_state), so they all run on the apply/undo spine; among the
  // library's own visitors only vcgen's rule-soundness sweep takes the
  // oracle path.
  //
  // Telemetry: the sequential engines run under a single WorkerScope (track
  // 0); the profile delta against the run-start baseline supports a shared
  // Telemetry across several explorations (e.g. a litmus catalogue tour).
  obs::PhaseProfile profile_base;
  if (options.telemetry != nullptr) profile_base = options.telemetry->profile();
  ExploreResult result;
  {
    obs::WorkerScope obs_scope(options.telemetry, 0);
    result = visitor.on_transition || opts.pre_execution
                 ? explore_materialized(start, opts, visitor)
                 : explore_incremental(start, opts, visitor);
  }
  if (options.telemetry != nullptr) {
    result.phases = options.telemetry->profile() - profile_base;
  }
  return result;
}

}  // namespace rc11::mc
