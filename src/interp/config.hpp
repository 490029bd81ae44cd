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

/// How finely a search interleaves the silent steps a thread takes between
/// its memory steps: the step granularity of StepOptions::tau_compress.
/// Both drained granularities (kStutterFree, kFused) also fuse every loop
/// unfolding the bound allows (StepOptions::loop_bound >= 0 and the
/// thread's unfold count below it): an unfolding keeps the thread's pc and
/// termination and writes no register and no memory, and only the bound
/// reads the count it adds. An unbounded search fuses no unfolding, since
/// `while (r == 0) { skip; }` would never leave the drain.
enum class TauCompress : std::uint8_t {
  /// Every silent and register step is a transition of its own.
  kEveryStep,
  /// Stutters (lang::is_stutter: silent steps that keep the thread's pc and
  /// termination) and allowed unfoldings fuse into the step before them.
  /// Register writes and pc-changing silent steps stay transitions, so
  /// every pc, register and termination an every-step search reaches is
  /// still reached (src/mc/README.md gives the argument).
  kStutterFree,
  /// Every deterministic silent and register step, and every allowed
  /// unfolding, fuses into the step before it (tau compression). Sound for
  /// terminated configurations and for memory-visible states, not for
  /// intermediate pcs or registers.
  kFused,
};

struct Config {
  const Program* program = nullptr;
  std::vector<ComPtr> cont;       ///< continuation of thread t at [t-1]
  std::vector<RegFile> regs;      ///< register file of thread t at [t-1]
  std::vector<int> unfoldings;    ///< while-unfold count of thread t
  Execution exec;
  /// The coarsest granularity at which every thread is drained: no thread
  /// has a pending step that granularity fuses under the loop bound of the
  /// search that drained it (kEveryStep claims nothing; a kFused drain
  /// leaves no stutter either). Lets apply_step's drain visit only the
  /// acting thread: whether a step fuses depends solely on the thread's own
  /// continuation, registers and unfold count, and an apply changes no
  /// other thread's. Derived state, excluded from key/fingerprint.
  TauCompress tau_normal = TauCompress::kEveryStep;
  /// Static program scan (set once by initial_config; lang::scan_sc_features).
  /// With `has_sc`, every enumerated memory step is psc-filtered — an
  /// enabled transition must keep the Sc axiom satisfiable.
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

  /// 128-bit digest of the canonical form: the execution's fingerprint
  /// lanes plus per-thread continuation / register / unfold state. Two
  /// configs with equal canonical_key() have equal fingerprints.
  /// pending_fingerprint (below) reads the same digest before a push.
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

  /// Which silent steps fuse into the step before them (see TauCompress;
  /// the drained granularities fuse the unfoldings loop_bound allows too).
  /// Read by successors and apply_step here and by mc::explore /
  /// mc::explore_from. The mc queries set it themselves (mc/checker.hpp):
  /// the final-state queries and DPOR fuse, the invariant queries run
  /// stutter-free; the race queries keep the caller's value.
  TauCompress tau_compress = TauCompress::kEveryStep;
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
// keep one such Config per worker (mc/cursor.hpp).
//
// enumerate_steps(c) followed by apply_step(c, out[i]) reaches a
// configuration isomorphic (equal canonical key and fingerprint) to
// successors(c)[i].next, in the same order — differentially asserted by
// tests/test_incremental.cpp.
//
// apply_step is the composition of two halves that touch disjoint state:
// the thread half (continuation, registers, unfold count, tau drain, and
// their snapshots) and the memory half (the step's push_event). A
// deduplicating explorer runs the thread half, fingerprints the successor
// with pending_fingerprint, which adds the push's lane delta without
// pushing, and runs the memory half only for a state the seen set lacks.
// A merged successor is undone by undo_step, which then reverts the thread
// half alone.

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
  /// The appended event, once the memory half ran; kNoEvent for a silent
  /// step or a thread half alone (undo_step then pops nothing).
  EventId event = c11::kNoEvent;
  c11::Execution::UndoToken exec;

  /// First-touch snapshots of every thread whose continuation, registers
  /// or unfold count the step changed (the acting thread, plus any thread
  /// advanced by tau compression).
  struct ThreadSnapshot {
    ThreadId thread = 0;
    ComPtr cont;
    RegFile regs;
    int unfoldings = 0;
  };
  std::vector<ThreadSnapshot> saved;

  /// Config::tau_normal before the apply; undo restores it (an apply can
  /// both establish the form — the initial full drain — and destroy it —
  /// a step taken at a finer granularity).
  TauCompress prev_tau_normal = TauCompress::kEveryStep;
};

/// Makes c's incremental cache valid (Execution::ensure_cache), with a
/// slot for every program thread. sigma_0's is built directly, in time
/// linear in the variables. The engines call it on their start
/// configuration so that the root's fingerprint reads the maintained
/// lanes; initial_config leaves it to them, since a configuration that is
/// only copied never needs it.
void prepare_cache(Config& c);

/// Appends every enabled transition of c to `out` (cleared first), in the
/// same order as successors(): each thread's transitions in turn, thread
/// ascending. Builds the Execution's incremental cache on first use (hence
/// the mutable Config reference) and reads the observability sets from it.
void enumerate_steps(Config& c, const StepOptions& opts,
                     std::vector<Step>& out);

/// Applies one enumerated step to c in place, then drains the steps
/// opts.tau_compress fuses under opts.loop_bound, mirroring successors():
/// the acting thread's, or every thread's while c is not yet drained at
/// that granularity.
/// Returns the appended event (kNoEvent for silent steps).
EventId apply_step(Config& c, const Step& s, const StepOptions& opts,
                   StepUndo& undo);

/// As above without recording undo state — for callers that keep the
/// resulting configuration (DPOR tree children, forward-only replay) and
/// would otherwise pay for continuation/register snapshots they never use.
EventId apply_step(Config& c, const Step& s, const StepOptions& opts);

/// The thread half of apply_step(c, s, opts, undo): everything but the
/// push. Leaves undo.event at kNoEvent.
void apply_thread_half(Config& c, const Step& s, const StepOptions& opts,
                       StepUndo& undo);

/// The memory half: pushes s's event (nothing for a silent step) on a
/// configuration that holds s's thread half, and records it in that half's
/// undo record. Returns the appended event (kNoEvent for silent steps).
EventId apply_memory_half(Config& c, const Step& s, StepUndo& undo);

/// The fingerprint apply_memory_half(c, s, ...) would leave, read from c
/// after s's thread half alone: Execution::pending_fingerprint_into (the
/// execution's size plus one, its lanes plus the push's fact delta) and
/// c's thread state. Nothing is pushed. Timed as obs::Phase::kFingerprint,
/// the fact delta included.
[[nodiscard]] util::Fingerprint pending_fingerprint(const Config& c,
                                                    const Step& s);

/// Exact inverse of the matching apply_step, or of a thread half whose
/// memory half never ran (LIFO).
void undo_step(Config& c, const StepUndo& undo);

// --- Canonical event identity ------------------------------------------------
//
// Event tags are interleaving-dependent: the same step appends a different
// EventId when an independent step of another thread runs first. The
// canonical identity (thread, sb-position within the thread) is invariant
// under any reordering of independent steps, so it is how step signatures
// (mc/independence.hpp) name a step's observed write across the frames of
// equivalent executions.

/// Frame-independent identity of an event. Initialising writes belong to
/// thread 0 (c11::kInitThread) and are indexed in tag order.
struct CanonicalEventId {
  c11::ThreadId thread = 0;
  std::uint32_t index = 0;

  auto operator<=>(const CanonicalEventId&) const = default;
};

/// Canonical ids of every event in `exec`, in one O(n) pass, recomputed
/// from scratch — the oracle for the ids push_event maintains.
[[nodiscard]] std::vector<CanonicalEventId> canonical_event_ids(
    const c11::Execution& exec);

/// As above into a caller-owned buffer (resized to exec.size()) — the
/// step-signature layer's fallback for executions without a valid
/// incremental cache, called once per expanded node, so the scratch must
/// be reusable.
void canonical_event_ids(const c11::Execution& exec,
                         std::vector<CanonicalEventId>& out);

/// Evaluates a litmus final-state condition on a configuration:
/// register atoms read the thread's register file; variable atoms read
/// wrval(sigma.last(x)).
[[nodiscard]] bool eval_cond(const lang::CondPtr& cond, const Config& c);

}  // namespace rc11::interp
