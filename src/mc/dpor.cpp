#include "mc/dpor.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>

#include "mc/cursor.hpp"
#include "mc/independence.hpp"
#include "util/arena.hpp"
#include "util/thread_pool.hpp"
#include "util/work_deque.hpp"

namespace rc11::mc {

namespace {

struct Engine;

/// One node of the exploration tree: a step path, never a configuration.
/// The spine (parent chain) is the trace E the node was reached by, and
/// its configuration is whatever replaying the spine's incoming steps from
/// the start configuration reaches — a worker's cursor does that when the
/// node arrives (arrive()). Scheduling state is guarded by `mu` because
/// race reversals discovered in stolen subtrees insert backtrack points
/// into ancestors owned by other workers. Nodes stay alive exactly while
/// some queued item, descendant or cursor spine holds a PoolRef to them —
/// an insertion into a node whose owner finished it long ago simply
/// enqueues a fresh work item for it. Nodes are arena-allocated and
/// recycled through the engine pool (util/arena.hpp): the intrusive
/// refcount replaces one shared_ptr control-block allocation per
/// transition.
struct Node {
  std::atomic<std::uint32_t> refs{0};  ///< intrusive PoolRef count
  Engine* eng = nullptr;               ///< owning pool, for dispose
  util::PoolRef<Node> parent;
  std::uint32_t depth = 0;
  StepSig in_sig{};  ///< signature of the incoming step (depth > 0)
  /// Incoming step (depth > 0), as enumerated at the parent. Every
  /// configuration reached by the same step path is identical, tags
  /// included, so any cursor standing on the parent replays it as is.
  interp::Step in_step{};

  // Set by the expansion that creates the node, before its arrival is
  // queued; immutable afterwards.

  /// hb_row[i] = 1 iff spine event e_i happens-before this node's incoming
  /// event e_depth (a chain of pairwise-dependent trace steps leads from i
  /// to depth). Computed once when the parent expands the incoming step
  /// (mc/independence.hpp build_hb_row), so race detection only builds the
  /// one new row per transition instead of the whole closure.
  std::vector<char> hb_row;
  /// Transition signatures asleep on arrival: their executions from here
  /// are covered by an earlier sibling subtree.
  SleepSet sleep;

  // Set when the node arrives (its configuration is visited), before its
  // first expansion is queued; immutable afterwards.

  /// All transitions, by thread ascending (children copy their in_step).
  std::vector<interp::Step> steps;
  std::vector<StepSig> sigs;  ///< sig per step
  /// The spine passed through an already-seen configuration: transitions
  /// from here re-explore a shared suffix (stats.redundant_transitions).
  bool redundant = false;

  std::mutex mu;  ///< guards `scheduled` and `executed`
  /// Threads scheduled at this node, in insertion order.
  std::vector<c11::ThreadId> scheduled;
  /// Signatures of the steps already executed from this node, in execution
  /// order. The order is the sleep-set order: a later-executed step's
  /// subtree may put an earlier-executed sibling transition to sleep, never
  /// the reverse.
  std::vector<StepSig> executed;
};

using NodePtr = util::PoolRef<Node>;

/// PoolRef release hook (found by ADL from util::PoolRef<Node>).
void pooled_dispose(Node* p);

/// `thread` of an item that visits its node rather than expanding it.
constexpr c11::ThreadId kArrive = 0;

/// A queued unit of work: the arrival of a freshly created node
/// (thread == kArrive), or the expansion of one scheduled thread at a node
/// that has arrived. Thread ids start at 1 (0 is the initialising thread).
struct Item {
  NodePtr node;
  c11::ThreadId thread = kArrive;
};

bool contains(const std::vector<c11::ThreadId>& v, c11::ThreadId t) {
  return std::find(v.begin(), v.end(), t) != v.end();
}

/// A worker's cursor (mc/cursor.hpp) with the tree nodes it stands on:
/// spine[k] is the node at depth k, spine[0] the root. Holding PoolRefs
/// keeps those nodes from being recycled, so pointer identity is a sound
/// test for the prefix the cursor shares with another node. Padded so
/// neighbouring workers' cursors don't false-share.
struct alignas(64) NodeCursor {
  Cursor at;
  std::vector<NodePtr> spine;
};

/// Per-worker reporting counters, merged into the result with
/// ExploreStats::operator+= when the run finishes. Owner-written without
/// synchronization (heartbeats may sample them; monitoring only), padded so
/// neighbouring workers don't false-share.
struct alignas(64) WorkerTotals {
  ExploreStats stats;
};

struct Engine {
  Engine(const interp::Config& start, const ExploreOptions& opts,
         const Visitor& vis, std::size_t workers)
      : options(opts),
        visitor(vis),
        deques(workers),
        worker_stats(workers),
        totals(workers),
        seen(workers) {
    cursors.reserve(workers);
    for (std::size_t k = 0; k < workers; ++k) {
      cursors.push_back(NodeCursor{Cursor(start), {}});
    }
  }

  /// Arena-backed node pool. A released node keeps the heap buffers of its
  /// step / signature / sleep vectors, so reusing one is near
  /// allocation-free once the pool is warm; the arena itself packs nodes
  /// contiguously and frees them wholesale. Declared first so it outlives
  /// the deques and cursors: items still queued at early-stop, and cursor
  /// spines, release their nodes into the pool during ~Engine.
  std::mutex pool_mu;
  util::ArenaPool<Node> pool;

  ExploreOptions options;
  const Visitor& visitor;
  util::WorkDeques<Item> deques;
  std::vector<WorkerStats> worker_stats;
  /// Pure-reporting counters live here, one slab per worker, written by the
  /// owner only — no hot-path atomics. `states`, `transitions` and
  /// `truncated` stay atomic: max_states control flow and heartbeat rates
  /// need coherent cross-worker reads.
  std::vector<WorkerTotals> totals;
  /// One cursor per worker, each owned by its worker (cursors[0] also
  /// serves the root's visit, before the workers start).
  std::vector<NodeCursor> cursors;

  AdaptiveSeenSet seen;  ///< unique-state accounting only (tree search)

  std::atomic<std::size_t> pending{0};
  std::atomic<bool> stop{false};
  std::atomic<std::size_t> states{0};
  std::atomic<std::size_t> transitions{0};
  std::atomic<bool> truncated{false};

  std::mutex abort_mutex;
  bool aborted = false;
  Trace abort_trace;

  void record_abort(Trace trace) {
    {
      std::lock_guard lock(abort_mutex);
      if (!aborted) {
        aborted = true;
        abort_trace = std::move(trace);
      }
    }
    stop.store(true, std::memory_order_release);
  }
};

/// Takes a node from the pool (or arena-creates one) with an initial
/// reference; the last PoolRef to die routes it through pooled_dispose.
NodePtr acquire_node(Engine& eng) {
  Node* p;
  {
    std::lock_guard lock(eng.pool_mu);
    p = eng.pool.acquire();
  }
  p->eng = &eng;
  p->refs.store(1, std::memory_order_relaxed);
  return NodePtr::adopt(p);
}

/// Scrubs the scheduling state of a node whose last reference died and
/// returns it to its engine's pool, buffers intact. The spine release runs
/// *before* taking the pool lock: resetting `parent` may cascade disposal
/// up the spine (bounded by depth), and each ancestor takes the lock for
/// its own push.
void pooled_dispose(Node* p) {
  Engine& eng = *p->eng;
  p->parent.reset();
  p->depth = 0;
  p->in_sig = {};
  p->in_step = {};
  p->hb_row.clear();
  p->sleep.clear();
  p->steps.clear();
  p->sigs.clear();
  p->redundant = false;
  p->scheduled.clear();
  p->executed.clear();
  std::lock_guard lock(eng.pool_mu);
  eng.pool.release(p);
}

/// Moves worker `me`'s cursor onto `target`: up to the deepest node of
/// target's spine the cursor stands on (undo), then down target's spine
/// replaying each node's in_step. The root is on every spine, so the walk
/// stops. A node popped right after its parent's expansion is one apply.
void move_to(Engine& eng, NodeCursor& nc, const NodePtr& target) {
  // The spine suffix the cursor lacks, deepest first. The PoolRefs live in
  // the item and in the nodes' parent fields, both immutable and alive
  // while `target` is.
  thread_local std::vector<const NodePtr*> suffix;
  suffix.clear();
  const NodePtr* p = &target;
  while ((*p)->depth >= nc.spine.size() || nc.spine[(*p)->depth] != *p) {
    suffix.push_back(p);
    p = &(*p)->parent;
  }
  const std::size_t shared = (*p)->depth + 1;
  nc.at.undo_to(shared - 1);
  nc.spine.resize(shared);
  for (auto it = suffix.rbegin(); it != suffix.rend(); ++it) {
    nc.at.apply((**it)->in_step, eng.options.step);
    nc.spine.push_back(**it);
  }
}

/// Fills steps/sigs of a node from the configuration it stands for.
void prepare_node(Node& n, interp::Config& config,
                  const ExploreOptions& options) {
  obs::ScopedPhase enum_phase(obs::Phase::kEnumerate);
  interp::enumerate_steps(config, options.step, n.steps);
  sigs_of(n.steps, config.exec, n.sigs, config.has_sc_fence);
}

/// The trace from the root to `n` (the path the spine encodes). Entries
/// are rendered here, on the cold path — the hot path only records steps.
Trace spine_trace(const Node* n) {
  Trace t;
  for (const Node* p = n; p->depth > 0; p = p->parent.get()) {
    t.entries.push_back(make_entry(p->in_step));
  }
  std::reverse(t.entries.begin(), t.entries.end());
  return t;
}

/// True iff thread q has at least one transition at n not slept on.
bool has_awake_step(const Node& n, c11::ThreadId q) {
  for (const StepSig& sig : n.sigs) {
    if (sig.thread == q && !sleep_contains(n.sleep, sig)) return true;
  }
  return false;
}

/// First thread to schedule at a node: a thread whose every step is silent
/// if one exists (silent steps are independent with everything, so the
/// node will never receive a backtrack point — the branch-deferring
/// "invisible transition first" heuristic; with tau compression these are
/// only loop unfoldings), else the lowest-id enabled thread with an awake
/// transition. Returns 0 when nothing is schedulable (a leaf, or a
/// sleep-set-blocked node whose executions are covered elsewhere).
c11::ThreadId pick_first(const Node& n) {
  // One pass over the signatures (sorted by thread ascending), tracking
  // per thread-group whether some step is awake and whether every step is
  // silent — instead of rescanning all sigs once per enabled thread.
  c11::ThreadId best = 0;
  c11::ThreadId cur = 0;
  bool cur_awake = false;
  bool cur_all_silent = true;
  const auto flush = [&]() -> c11::ThreadId {
    if (cur != 0 && cur_awake) {
      if (cur_all_silent) return cur;
      if (best == 0) best = cur;
    }
    return 0;
  };
  for (const StepSig& sig : n.sigs) {
    if (sig.thread != cur) {
      if (const c11::ThreadId r = flush(); r != 0) return r;
      cur = sig.thread;
      cur_awake = false;
      cur_all_silent = true;
    }
    if (!sig.silent) cur_all_silent = false;
    if (!cur_awake && !sleep_contains(n.sleep, sig)) cur_awake = true;
  }
  if (const c11::ThreadId r = flush(); r != 0) return r;
  return best;
}

void push_item(Engine& eng, std::size_t me, Item item) {
  eng.pending.fetch_add(1, std::memory_order_acq_rel);
  eng.deques.push_local(me, std::move(item));
}

/// Schedules the first thread of a node that has just been visited and
/// queues its expansion (none for a leaf or a sleep-blocked node).
void schedule_first(Engine& eng, std::size_t me, const NodePtr& node) {
  const c11::ThreadId first = pick_first(*node);
  if (first == 0) return;
  {
    std::lock_guard lock(node->mu);
    node->scheduled.push_back(first);
  }
  ++eng.worker_stats[me].enqueued;
  push_item(eng, me, Item{node, first});
}

/// Source-set backtrack insertion: unless some initial is already
/// scheduled at `target`, schedule one — preferring a thread with an
/// awake transition. When every initial is fully asleep, the race's
/// reversal is covered by the sibling subtree that put it to sleep; the
/// first initial is still marked scheduled so later races don't
/// reconsider the node.
void insert_backtrack(Engine& eng, std::size_t me, const NodePtr& target,
                      const std::vector<c11::ThreadId>& initials) {
  std::lock_guard lock(target->mu);
  for (c11::ThreadId q : initials) {
    if (contains(target->scheduled, q)) return;
  }
  for (c11::ThreadId q : initials) {
    if (has_awake_step(*target, q)) {
      target->scheduled.push_back(q);
      ++eng.totals[me].stats.backtracks;
      push_item(eng, me, Item{target, q});
      return;
    }
  }
  target->scheduled.push_back(initials.front());
}

/// Detects every reversible race between the step about to be taken from
/// `self` (signature `t_sig`) and the spine E, and inserts the source-set
/// backtrack points. Fills `row_out` with t's happens-before row (hb_row
/// for the child node the step creates), so each transition costs one
/// O(depth^2) row build — the rows of the spine events are cached in their
/// nodes.
void race_reversals(Engine& eng, std::size_t me, const NodePtr& self,
                    const StepSig& t_sig, std::vector<char>& row_out) {
  Node& n = *self;
  const std::size_t d = n.depth;
  row_out.clear();
  if (d == 0) return;

  // nodes[k] = spine node at depth k; its in_sig is trace event e_k and
  // its hb_row[i] says whether e_i happens-before e_k. (Thread-local
  // scratch: one call per executed transition, keep it allocation-free.)
  thread_local std::vector<Node*> nodes;
  nodes.resize(d + 1);
  {
    Node* p = &n;
    for (std::size_t k = d;; --k) {
      nodes[k] = p;
      if (k == 0) break;
      p = p->parent.get();
    }
  }
  const auto sig_at = [&](std::size_t k) -> const StepSig& {
    return nodes[k]->in_sig;
  };
  const auto row_at = [&](std::size_t k) -> const std::vector<char>& {
    return nodes[k]->hb_row;
  };

  build_hb_row(d, t_sig, sig_at, row_out);

  for_each_reversible_race(
      d, t_sig, sig_at, row_at, row_out, [&](std::size_t i) {
        // v = notdep(e_i, E).t: the steps after e_i not happening-after
        // it, then t. The initial threads are the threads of v's weak
        // initials (each weak initial is its thread's first step in v).
        thread_local std::vector<std::size_t> v;
        notdep_indices(i, d, row_at, v);
        v.push_back(d + 1);  // t itself
        const auto v_sig = [&](std::size_t a) -> const StepSig& {
          return v[a] <= d ? sig_at(v[a]) : t_sig;
        };
        thread_local std::vector<std::size_t> wi;
        weak_initial_indices(v.size(), v_sig, wi);
        thread_local std::vector<c11::ThreadId> initials;
        initials.clear();
        for (const std::size_t a : wi) initials.push_back(v_sig(a).thread);
        if (initials.empty()) return;  // unreachable: v's head is initial

        insert_backtrack(eng, me, nodes[i]->parent, initials);
      });
}

/// Expands one scheduled (node, thread) pair: for every enabled transition
/// of the thread, detects races, and creates the child node with its hb
/// row and sleep set — all from signatures, without reading a
/// configuration — and queues the child's arrival.
void expand_item(Engine& eng, std::size_t me, const Item& item) {
  Node& n = *item.node;
  ++eng.worker_stats[me].processed;
  ExploreStats& my = eng.totals[me].stats;

  for (std::size_t i = 0; i < n.sigs.size(); ++i) {
    if (n.sigs[i].thread != item.thread) continue;
    if (eng.stop.load(std::memory_order_acquire)) return;

    const StepSig& sig = n.sigs[i];
    if (sleep_contains(n.sleep, sig)) {
      continue;  // covered by an earlier sibling subtree (counted on arrival)
    }

    // Sleep-order prefix: the sibling transitions executed from n before
    // this one (their subtrees cover what this child may sleep on). The
    // snapshot-and-append is one critical section so concurrent executors
    // at the same node order themselves consistently.
    SleepSet prefix;
    {
      std::lock_guard lock(n.mu);
      prefix.assign(n.executed.begin(), n.executed.end());
      n.executed.push_back(sig);
    }

    eng.transitions.fetch_add(1, std::memory_order_relaxed);
    if (n.redundant) ++my.redundant_transitions;

    NodePtr child = acquire_node(eng);
    {
      obs::ScopedPhase race_phase(obs::Phase::kRaceDetect);
      race_reversals(eng, me, item.node, sig, child->hb_row);
    }
    child->parent = item.node;
    child->depth = n.depth + 1;
    child->in_sig = sig;
    child->in_step = n.steps[i];
    my.max_depth = std::max<std::size_t>(my.max_depth, child->depth + 1);

    // Godefroid's sleep rule at transition granularity: a sibling
    // transition stays asleep in the child iff it commutes with the taken
    // step — inherited sleep plus the earlier-executed siblings.
    child->sleep.reserve(n.sleep.size() + prefix.size());
    for (const StepSig& s : n.sleep) {
      if (independent(s, sig)) child->sleep.push_back(s);
    }
    for (const StepSig& s : prefix) {
      if (independent(s, sig)) child->sleep.push_back(s);
    }
    std::sort(child->sleep.begin(), child->sleep.end());
    child->sleep.erase(std::unique(child->sleep.begin(), child->sleep.end()),
                       child->sleep.end());
    push_item(eng, me, Item{std::move(child), kArrive});
  }
}

/// Visits a node on worker `me`'s cursor: moves the cursor onto it, then
/// accounts the unique state (seen set, on_state / on_final), enumerates
/// its transitions, tallies what the sleep set prunes there and queues the
/// expansion of its first thread.
void arrive(Engine& eng, std::size_t me, const NodePtr& node) {
  NodeCursor& nc = eng.cursors[me];
  Node& x = *node;
  ExploreStats& my = eng.totals[me].stats;

  if (eng.visitor.on_transition) {
    // Cold path: the visitor contract hands over the parent configuration
    // and a materialized ConfigStep, so copy the parent once and move the
    // cursor's configuration through the view (and back).
    move_to(eng, nc, x.parent);
    const interp::Config pre = nc.at.config();
    move_to(eng, nc, node);
    interp::Config& config = nc.at.config();
    interp::ConfigStep view;
    view.thread = x.in_sig.thread;
    view.silent = x.in_sig.silent;
    if (!x.in_sig.silent) {
      view.event = static_cast<c11::EventId>(config.exec.size() - 1);
      view.observed = x.in_step.observed;  // frame tag (sig is canonical)
      view.action = config.exec.event(view.event).action;
    }
    view.loop_unfold = x.in_step.loop_unfold;
    view.next = std::move(config);
    const bool keep = eng.visitor.on_transition(pre, view);
    config = std::move(view.next);
    if (!keep) {
      eng.record_abort(spine_trace(&x));
      return;
    }
  } else {
    move_to(eng, nc, node);
  }
  interp::Config& config = nc.at.config();

  InsertResult ins;
  {
    obs::ScopedPhase probe_phase(obs::Phase::kSeenProbe);
    ins = eng.seen.insert(config.fingerprint());
  }
  x.redundant = x.parent->redundant || !ins.inserted;
  if (config.terminated()) ++my.complete_traces;
  if (ins.inserted) {
    const std::size_t states =
        eng.states.fetch_add(1, std::memory_order_relaxed) + 1;
    if (states >= eng.options.max_states) {
      eng.truncated.store(true);
      eng.stop.store(true);
      return;
    }
    if (eng.visitor.on_state && !eng.visitor.on_state(config)) {
      eng.record_abort(spine_trace(&x));
      return;
    }
    if (config.terminated()) {
      ++my.finals;
      if (eng.visitor.on_final && !eng.visitor.on_final(config)) {
        eng.record_abort(spine_trace(&x));
        return;
      }
    }
  } else {
    ++my.merged;
    ++eng.worker_stats[me].merged;
  }

  prepare_node(x, config, eng.options);

  // The node's transitions already covered elsewhere are what the sleep
  // filter refuses to run (whether or not their thread ever gets scheduled
  // here).
  std::size_t pruned = 0;
  for (const StepSig& s : x.sigs) {
    if (sleep_contains(x.sleep, s)) ++pruned;
  }
  my.por_pruned += pruned;
  if (!x.sigs.empty() && pruned == x.sigs.size()) {
    // Every enabled transition is asleep: the execution dies here and its
    // prefix was wasted (stats.sleep_blocked).
    ++my.sleep_blocked;
  }

  schedule_first(eng, me, node);
}

/// Progress heartbeat: the winning worker samples the engine counters. The
/// per-worker slabs are owner-written plain fields; sampling them here is
/// unsynchronized by design (monitoring only, no control flow depends on
/// the values).
void emit_heartbeat(Engine& eng) {
  obs::ProgressSnapshot snap;
  snap.states = eng.states.load(std::memory_order_relaxed);
  snap.transitions = eng.transitions.load(std::memory_order_relaxed);
  snap.frontier = eng.pending.load(std::memory_order_relaxed);
  snap.seen_bytes = eng.seen.bytes();
  for (const WorkerTotals& w : eng.totals) {
    snap.finals += w.stats.finals;
    snap.sleep_blocked += w.stats.sleep_blocked;
    snap.redundant += w.stats.redundant_transitions;
    snap.max_depth = std::max(snap.max_depth, w.stats.max_depth);
  }
  snap.workers.reserve(eng.worker_stats.size());
  for (const WorkerStats& ws : eng.worker_stats) {
    snap.workers.push_back({ws.processed, ws.enqueued, ws.steals, ws.merged});
  }
  eng.options.telemetry->emit(std::move(snap));
}

void worker_loop(Engine& eng, std::size_t me) {
  obs::WorkerScope obs_scope(eng.options.telemetry,
                             static_cast<std::uint32_t>(me));
  constexpr int kYieldRounds = 64;
  int idle_rounds = 0;
  while (true) {
    if (eng.stop.load(std::memory_order_acquire)) return;
    std::optional<Item> item = eng.deques.pop_local(me);
    if (!item && eng.deques.worker_count() > 1) {
      item = eng.deques.steal(me);
      if (item) {
        ++eng.worker_stats[me].steals;
        obs::instant_event("steal");
      }
    }
    if (!item) {
      if (eng.pending.load(std::memory_order_acquire) == 0) return;
      // Sequential: nothing can appear while we hold the only deque.
      if (eng.deques.worker_count() == 1) return;
      if (++idle_rounds <= kYieldRounds) {
        std::this_thread::yield();
      } else {
        std::this_thread::sleep_for(std::chrono::microseconds(100));
      }
      continue;
    }
    idle_rounds = 0;
    if (item->thread == kArrive) {
      arrive(eng, me, item->node);
    } else {
      expand_item(eng, me, *item);
    }
    eng.pending.fetch_sub(1, std::memory_order_acq_rel);
    if (eng.options.telemetry != nullptr &&
        eng.options.telemetry->heartbeat_due()) {
      emit_heartbeat(eng);
    }
  }
}

}  // namespace

ExploreResult explore_dpor(const interp::Config& start,
                           const ExploreOptions& options,
                           const Visitor& visitor, std::size_t workers,
                           std::vector<WorkerStats>* worker_stats) {
  if (workers == 0) workers = 1;
  Engine eng(start, options, visitor, workers);
  // Scheduling points are visible (memory) steps only: deterministic
  // silent/register steps never branch the search and are fused into the
  // preceding transition (loop unfoldings stay visible — they are bounded
  // and must branch). Invisible transitions are never scheduling points in
  // DPOR; this is what makes the reduction bite on register-heavy litmus
  // programs. Returned traces therefore replay under tau_compress = true.
  eng.options.step.tau_compress = true;

  obs::PhaseProfile profile_base;
  if (options.telemetry != nullptr) profile_base = options.telemetry->profile();

  auto finish = [&](bool root_aborted = false) {
    ExploreResult res;
    // Per-worker reporting slabs merge via ExploreStats::operator+=; the
    // shared/atomic pieces are set once on the merged result afterwards.
    for (const WorkerTotals& w : eng.totals) res.stats += w.stats;
    res.stats.states = eng.states.load();
    res.stats.transitions = eng.transitions.load();
    res.stats.truncated = eng.truncated.load();
    res.stats.peak_seen_bytes = eng.seen.bytes();
    {
      std::lock_guard lock(eng.abort_mutex);
      res.aborted = eng.aborted || root_aborted;
      res.abort_trace = std::move(eng.abort_trace);
    }
    if (worker_stats != nullptr) *worker_stats = eng.worker_stats;
    if (options.telemetry != nullptr) {
      res.phases = options.telemetry->profile() - profile_base;
    }
    return res;
  };

  NodePtr root = acquire_node(eng);
  for (NodeCursor& nc : eng.cursors) nc.spine.push_back(root);
  eng.totals[0].stats.max_depth = 1;
  {
    // The root's visit runs on the calling thread with worker 0's cursor,
    // under its own telemetry scope, released before the workers attach
    // theirs.
    obs::WorkerScope obs_scope(options.telemetry, 0);
    interp::Config& config = eng.cursors[0].at.config();
    (void)eng.seen.insert(config.fingerprint());
    eng.states.store(1);
    if (visitor.on_state && !visitor.on_state(config)) {
      return finish(/*root_aborted=*/true);
    }
    if (config.terminated()) {
      eng.totals[0].stats.finals = 1;
      eng.totals[0].stats.complete_traces = 1;
      if (visitor.on_final && !visitor.on_final(config)) {
        return finish(/*root_aborted=*/true);
      }
    }
    prepare_node(*root, config, eng.options);
  }
  schedule_first(eng, 0, root);

  if (workers == 1) {
    worker_loop(eng, 0);
  } else {
    util::ThreadPool pool(workers);
    for (std::size_t k = 0; k < workers; ++k) {
      pool.submit([&eng, k] { worker_loop(eng, k); });
    }
    pool.wait_idle();
  }
  return finish();
}

}  // namespace rc11::mc
