// Interpreted semantics (Section 3.3): configurations (P, sigma) and the
// combined step relation  (P, sigma) ==(w,e)==>_RA (P', sigma').
//
// A Config holds, per thread: the remaining command (continuation), the
// register file (extension), the pc (leading label), and the count of loop
// unfoldings taken (used for bounded exploration of busy-wait loops).
// The memory side is a c11::Execution.
//
// successors() enumerates every enabled transition:
//  * silent / register steps (lambda transitions, first rule of Sec. 3.3);
//  * for a ReadStep, one successor per observable write (Read rule);
//  * for a WriteStep, one successor per insertion point in OW \ CW
//    (Write rule);
//  * for an UpdateStep, one successor per uncovered observable write
//    (RMW rule).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "c11/event_semantics.hpp"
#include "c11/execution.hpp"
#include "lang/program.hpp"
#include "util/fingerprint.hpp"

namespace rc11::interp {

using c11::EventId;
using c11::Execution;
using c11::ThreadId;
using lang::ComPtr;
using lang::Program;
using lang::RegFile;
using lang::Value;

/// pc value reported for a terminated / unlabeled continuation.
inline constexpr int kDonePc = 0;

struct Step;

/// Per-thread cache of enumerated transitions (see enumerate_steps). One
/// apply_step changes the acting thread's continuation plus a bounded
/// observability delta, so most threads' enabled-transition lists are
/// identical between sibling nodes. Each entry keeps the thread's Step
/// slice together with the inputs that produced it; invalidation is
/// hybrid:
///
///  * eager dirty bits for thread-local state — apply_step / undo_step
///    clear `valid` for every thread whose continuation, registers or
///    unfold count they touch (the acting thread and any tau-compressed
///    thread);
///  * lazy version equality for memory observability — an entry whose
///    cached peek is a memory access on x records the Execution's
///    cache_epoch / var_write_version(x) / var_cover_version(x); any
///    push or pop of a write on x advances those monotonic streams, so a
///    stale entry fails the equality test at the next enumerate_steps
///    without anyone having to find it eagerly.
///
/// The cache is derived state: it never feeds fingerprints or canonical
/// keys, and copying a Config forks the version streams together with the
/// Execution, so entries stay comparable within their own copy.
struct StepCache {
  struct Entry {
    bool valid = false;   ///< false = dirty or never enumerated
    bool memory = false;  ///< cached peek was a read/write/update
    c11::VarId var = 0;   ///< peeked variable, when memory
    std::uint64_t epoch = 0;      ///< exec.cache_epoch() at enumeration
    std::uint64_t write_ver = 0;  ///< exec.var_write_version(var)
    std::uint64_t cover_ver = 0;  ///< exec.var_cover_version(var)
    std::uint32_t begin = 0;      ///< this thread's slice in `steps`
    std::uint32_t end = 0;
  };
  std::vector<Entry> entries;  ///< entry of thread t at [t-1]
  /// All threads' slices concatenated in thread-ascending order — exactly
  /// the last enumerate_steps output. Flat storage keeps Config copies
  /// cheap (two trivially-copyable vector assigns that reuse capacity in
  /// pooled DPOR nodes, instead of one heap allocation per thread).
  std::vector<Step> steps;
  int loop_bound = -1;         ///< StepOptions the entries were built under
  bool opts_seen = false;

  /// Marks thread t's entry for re-enumeration (no-op if the thread has
  /// never been enumerated).
  void mark_dirty(ThreadId t) {
    if (t >= 1 && t <= entries.size()) entries[t - 1].valid = false;
  }
  void invalidate() {
    for (auto& e : entries) e.valid = false;
  }
};

struct Config {
  const Program* program = nullptr;
  std::vector<ComPtr> cont;       ///< continuation of thread t at [t-1]
  std::vector<RegFile> regs;      ///< register file of thread t at [t-1]
  std::vector<int> unfoldings;    ///< while-unfold count of thread t
  Execution exec;
  StepCache step_cache;           ///< derived; excluded from key/fingerprint
  /// True iff every thread's silent/register steps are drained (tau-normal
  /// form). Lets apply_step's compression pass drain only the acting
  /// thread: silent steps depend solely on the thread's own continuation
  /// and registers, and an apply changes no other thread's. Derived state,
  /// excluded from key/fingerprint.
  bool tau_normal = false;
  /// Static program scan (set once by initial_config; lang::scan_sc_features).
  /// With `has_sc`, every enumerated memory step is psc-filtered — an
  /// enabled transition must keep the Sc axiom satisfiable — and the step
  /// cache is bypassed: the psc constraint couples enabledness across
  /// threads, breaking the cache's thread-locality assumption.
  bool has_sc = false;
  /// An SC *fence* occurs in the program: SC fences let any two cross-thread
  /// memory accesses interact through psc_f, so the independence relation
  /// degrades to thread-disjointness only (mc/independence.hpp).
  bool has_sc_fence = false;

  [[nodiscard]] std::size_t thread_count() const { return cont.size(); }

  [[nodiscard]] const ComPtr& continuation(ThreadId t) const {
    return cont[t - 1];
  }
  [[nodiscard]] const RegFile& registers(ThreadId t) const {
    return regs[t - 1];
  }

  /// Auxiliary pc function of Section 5.2: leading label of the thread's
  /// continuation (kDonePc when none).
  [[nodiscard]] int pc(ThreadId t) const;

  /// All threads terminated (continuations are skip modulo labels).
  [[nodiscard]] bool terminated() const;

  /// Canonical serialisation for state-space deduplication: canonical
  /// execution key + per-thread continuation/regs/unfold counts. Kept for
  /// diagnostics and collision tests; the explorers deduplicate on
  /// fingerprint(), which hashes the same data without materializing it.
  [[nodiscard]] std::string canonical_key() const;

  /// 128-bit digest of the canonical form: streaming hash of the execution's
  /// canonical words plus per-thread continuation / register / unfold state.
  /// Two configs with equal canonical_key() have equal fingerprints.
  [[nodiscard]] util::Fingerprint fingerprint() const;
};

/// (P_0, sigma_0): program at its entry points, memory holding one
/// initialising write per declared variable.
[[nodiscard]] Config initial_config(const Program& p);

/// One transition of the interpreted semantics.
struct ConfigStep {
  Config next;
  ThreadId thread = 0;
  bool silent = true;            ///< lambda transition (no memory event)
  EventId event = c11::kNoEvent;     ///< e, when not silent
  EventId observed = c11::kNoEvent;  ///< w, when not silent
  c11::Action action;            ///< act(e), when not silent
  bool loop_unfold = false;      ///< the step was a while unfolding
};

struct StepOptions {
  /// Maximum while-unfoldings per thread; further unfoldings are disabled
  /// (bounded exploration). Negative = unbounded.
  int loop_bound = -1;

  /// Fast-forward deterministic silent/register steps after each visible
  /// step (tau compression). Sound for reachability of memory-visible
  /// states; disable when intermediate pcs matter (invariant checking).
  bool tau_compress = false;
};

/// All enabled transitions from c under the RA event semantics. This is
/// the from-scratch oracle: every successor carries a full Config copy and
/// the derived relations are recomputed by closure. The exploration hot
/// path uses enumerate_steps / apply_step / undo_step below instead.
[[nodiscard]] std::vector<ConfigStep> successors(const Config& c,
                                                 const StepOptions& opts = {});

// --- Incremental stepping (exploration hot path) -----------------------------
//
// enumerate_steps lists the enabled transitions as signatures only — no
// Config is copied and no closure is recomputed (the observability sets
// come from the Execution's incremental cache). apply_step performs one
// such transition on the Config *in place*, recording exactly what it
// changed in a StepUndo; undo_step reverts it (LIFO). A depth-first
// explorer therefore mutates one spine Config; the work-stealing engines
// keep one such Config per worker (mc/cursor.hpp), and only the optimal
// DPOR engine's tree nodes still materialize copies.
//
// enumerate_steps(c) followed by apply_step(c, out[i]) reaches a
// configuration isomorphic (equal canonical key and fingerprint) to
// successors(c)[i].next, in the same order — differentially asserted by
// tests/test_incremental.cpp.

/// A transition described without any Config state. For memory steps the
/// action and observed write determine the rf/mo delta (Figure 3).
struct Step {
  ThreadId thread = 0;
  bool silent = true;            ///< lambda transition (no memory event)
  bool loop_unfold = false;      ///< the step is a while unfolding
  c11::Action action;            ///< act(e), when not silent
  EventId observed = c11::kNoEvent;  ///< w, when not silent
};

/// Undo record for one applied step. Tokens must be undone in LIFO order;
/// a token object is reusable across apply/undo cycles (its buffers keep
/// their capacity).
struct StepUndo {
  ThreadId thread = 0;
  bool silent = true;
  bool loop_unfold = false;
  EventId event = c11::kNoEvent;  ///< the appended event (non-silent steps)
  c11::Execution::UndoToken exec;

  /// First-touch snapshots of every thread whose continuation / registers
  /// the step changed (the acting thread, plus any thread advanced by tau
  /// compression).
  struct ThreadSnapshot {
    ThreadId thread = 0;
    ComPtr cont;
    RegFile regs;
  };
  std::vector<ThreadSnapshot> saved;

  /// Config::tau_normal before the apply; undo restores it (an apply can
  /// both establish the form — the initial full drain — and destroy it —
  /// a step taken without compression).
  bool prev_tau_normal = false;
};

/// Appends every enabled transition of c to `out` (cleared first), in the
/// same order as successors(). Builds the Execution's incremental cache on
/// first use (hence the mutable Config reference) and maintains
/// c.step_cache: only threads whose cached entry is dirty (thread-local
/// change) or version-stale (observability change on the peeked variable)
/// are re-enumerated; clean threads' slices are spliced from the cache in
/// thread-ascending order, preserving the exact successors() order.
void enumerate_steps(Config& c, const StepOptions& opts,
                     std::vector<Step>& out);

/// As enumerate_steps, but always re-enumerates every thread and never
/// reads or writes c.step_cache — the from-scratch differential oracle for
/// the cached path (tests/test_stepcache.cpp).
void enumerate_steps_uncached(Config& c, const StepOptions& opts,
                              std::vector<Step>& out);

/// Thread-local tallies of enumerate_steps cache behaviour: one tick per
/// (call, thread) pair, `reused` when the cached slice was spliced,
/// `recomputed` when the thread was re-enumerated. Engines snapshot the
/// counters around a search and report the deltas as
/// ExploreStats::enum_threads_{reused,recomputed}.
struct StepEnumCounters {
  std::uint64_t reused = 0;
  std::uint64_t recomputed = 0;
};
[[nodiscard]] StepEnumCounters& step_enum_counters();

/// Applies one enumerated step to c in place (including tau compression
/// when opts.tau_compress is set, mirroring successors()). Returns the
/// appended event (kNoEvent for silent steps).
EventId apply_step(Config& c, const Step& s, const StepOptions& opts,
                   StepUndo& undo);

/// As above without recording undo state — for callers that keep the
/// resulting configuration (DPOR tree children, forward-only replay) and
/// would otherwise pay for continuation/register snapshots they never use.
EventId apply_step(Config& c, const Step& s, const StepOptions& opts);

/// Exact inverse of the matching apply_step (LIFO).
void undo_step(Config& c, const StepUndo& undo);

// --- Canonical event identity (trace-suffix replay across frames) ------------
//
// Event tags are interleaving-dependent: the same step appends a different
// EventId when an independent step of another thread runs first. The
// canonical identity (thread, sb-position within the thread) is invariant
// under any reordering of independent steps, so it is how the optimal-DPOR
// wakeup machinery (mc/wakeup.hpp) names a step's observed write across
// frames: a wakeup sequence extracted from one explored trace replays as a
// suffix of any Mazurkiewicz-equivalent prefix by resolving canonical ids
// against the replay configuration (find_wakeup_step matches the resolved
// step among the frame's enumerated transitions).

/// Frame-independent identity of an event. Initialising writes belong to
/// thread 0 (c11::kInitThread) and are indexed in tag order.
struct CanonicalEventId {
  c11::ThreadId thread = 0;
  std::uint32_t index = 0;

  auto operator<=>(const CanonicalEventId&) const = default;
};

/// The canonical id of `e` in `exec` (e must be a valid tag).
[[nodiscard]] CanonicalEventId canonical_event_id(const c11::Execution& exec,
                                                  EventId e);

/// Canonical ids of every event in `exec`, in one O(n) pass — for callers
/// that resolve many events of the same frame (the optimal engine's
/// leaf-time race reversal builds O(d^2) wakeup steps per maximal
/// execution).
[[nodiscard]] std::vector<CanonicalEventId> canonical_event_ids(
    const c11::Execution& exec);

/// As above into a caller-owned buffer (resized to exec.size()) — the
/// step-signature layer canonicalizes every enumerated transition's
/// observed write once per expanded node, so the scratch must be reusable.
void canonical_event_ids(const c11::Execution& exec,
                         std::vector<CanonicalEventId>& out);

/// The tag carrying canonical id `cid` in `exec`, or kNoEvent if the
/// thread has fewer events than cid.index+1 (the event has not been
/// replayed yet in this frame).
[[nodiscard]] EventId resolve_canonical_event(const c11::Execution& exec,
                                              const CanonicalEventId& cid);

/// Evaluates a litmus final-state condition on a configuration:
/// register atoms read the thread's register file; variable atoms read
/// wrval(sigma.last(x)).
[[nodiscard]] bool eval_cond(const lang::CondPtr& cond, const Config& c);

}  // namespace rc11::interp
