// The independence relation over interpreter transitions, shared by every
// reduction layer (sleep sets in the sequential and parallel explorers,
// source-set DPOR in dpor.cpp).
//
// A transition is identified across neighbouring states by its *signature*:
// the acting thread, whether it is silent, and (for memory steps) the
// action kind / variable / values and the observed write (the read source,
// or the mo insertion point for writes). The new event's own tag is
// deliberately excluded — it shifts when an independent step of another
// thread is appended first, while the signature stays stable. The observed
// write is named by its *canonical* event id (thread, sb-position —
// interp::CanonicalEventId), which is invariant under any reordering of
// independent steps: signatures of the same Mazurkiewicz step compare
// equal across frames of equivalent executions, so sleep sets, wakeup
// steps and race-reversal bookkeeping can be exchanged between spines
// without per-frame tag translation. This keys exploration on *reads-from
// choices*: two enabled instances of one thread's command reading from
// different writes are different signatures, hence different equivalence
// classes everywhere in the reduction stack.
//
// Two signatures are independent iff executing them in either order from
// any state where both are enabled yields isomorphic configurations
// (Proposition 2.3 / 4.1 quotient). The relation is *syntactic* and
// derived from the action footprints of c11/action.hpp plus the
// observability semantics (Section 3.2):
//
//   * same thread            -> dependent (program order);
//   * either step silent     -> independent (silent steps touch only
//                               thread-local continuation/registers/
//                               unfold counters);
//   * different variables    -> independent (EW/OW/CW are per-variable:
//                               a write to x never changes another
//                               thread's observable writes of y, and a
//                               read adds no hb edge into other threads);
//   * both plain reads       -> independent (reads add only an rf edge
//                               ending at the new event; they cannot
//                               cover writes or extend another thread's
//                               encountered set);
//   * otherwise              -> dependent (same-location conflicting
//                               accesses; updRA counts as both read and
//                               write, so RMWs conflict with every
//                               same-variable access — this is the
//                               RMW-ordering clause).
//
// Full-RC11 clauses (fences and SC accesses), applied before the
// same-variable rules above:
//
//   * fence vs fence         -> independent unless both are SC fences
//                               (two SC fences are psc_f-related through
//                               hb u hb;eco;hb, so their relative order
//                               matters to the Sc axiom);
//   * fence vs access        -> dependent (conservative: an acquire-side
//                               fence synchronises with release-side
//                               writes, a release-side fence qualifies
//                               later writes, and an SC fence couples to
//                               everything through psc);
//   * both accesses SC       -> dependent even on different variables
//                               (psc_base orders all SC accesses: pushing
//                               one can disable the other's Sc premise);
//   * program has SC fence   -> all cross-thread access pairs dependent
//                               (`sc_coupled` signature flag: with an SC
//                               fence in the program, any push can create
//                               a psc_f edge between old fences through
//                               hb;eco;hb, so enabledness is global).
//
// Dependence is an over-approximation of true conflict, which is the safe
// direction for every reduction built on it. tests/test_dpor.cpp
// differentially validates the relation: every POR mode must agree with
// full enumeration on verdicts, final-state fingerprints and race reports.
#pragma once

#include <algorithm>
#include <vector>

#include "c11/action.hpp"
#include "interp/config.hpp"

namespace rc11::mc {

/// "No observed write" sentinel. The default CanonicalEventId {0, 0} is a
/// real event (the initialising write of the first variable), so silent
/// steps and steps without an observed write carry an index no thread can
/// reach instead.
inline constexpr interp::CanonicalEventId kNoCanonicalObserved{
    0, 0xffffffffu};

/// Stable cross-state identity of a transition (see file comment).
struct StepSig {
  c11::ThreadId thread = 0;
  bool silent = true;
  /// The enclosing program contains an SC fence (uniform across a run;
  /// set on non-silent signatures only). See the file comment.
  bool sc_coupled = false;
  c11::ActionKind kind = c11::ActionKind::kWrX;
  c11::VarId var = 0;
  c11::Value rval = 0;
  c11::Value wval = 0;
  interp::CanonicalEventId observed = kNoCanonicalObserved;

  auto operator<=>(const StepSig&) const = default;
};

/// Builds a signature from a step. `cid_of(w)` yields the canonical id of
/// event w in the frame the step was enumerated in (the *source*
/// configuration — the observed write exists there by construction).
/// ConfigStep and Step expose the same identity fields; one extraction
/// keeps the materialized and incremental paths' signatures identical.
template <typename S, typename CidOf>
[[nodiscard]] StepSig sig_of(const S& s, const CidOf& cid_of,
                             bool sc_coupled = false) {
  StepSig sig;
  sig.thread = s.thread;
  sig.silent = s.silent;
  if (!s.silent) {
    sig.sc_coupled = sc_coupled;
    sig.kind = s.action.kind;
    sig.var = s.action.var;
    sig.rval = s.action.rval;
    sig.wval = s.action.wval;
    if (s.observed != c11::kNoEvent) sig.observed = cid_of(s.observed);
  }
  return sig;
}

/// The interp::CanonicalEventId of event `w`, read from the ids push_event
/// maintains (`packed` = *exec.cids_if_cached()) in O(1) for a thread
/// event. The two encodings differ for initialising writes: the packed id
/// is (var << 8) | occurrence, while interp::canonical_event_ids ranks
/// them in tag order, so w's index is the number of initialising writes
/// tagged below it. Execution::initial creates them first, so that count
/// is w itself and costs at most one test per variable.
[[nodiscard]] inline interp::CanonicalEventId maintained_canonical_id(
    const c11::Execution& exec, const std::vector<std::uint64_t>& packed,
    c11::EventId w) {
  const c11::ThreadId t = exec.event(w).tid;
  if (t != c11::kInitThread) {
    return {t, static_cast<std::uint32_t>(packed[w] & 0xffffffffu)};
  }
  std::uint32_t rank = 0;
  for (c11::EventId e = 0; e < w; ++e) rank += exec.init_writes().test(e);
  return {c11::kInitThread, rank};
}

[[nodiscard]] inline bool is_read_kind(c11::ActionKind k) {
  return k == c11::ActionKind::kRdX || k == c11::ActionKind::kRdA ||
         k == c11::ActionKind::kRdNA || k == c11::ActionKind::kRdSC;
}

[[nodiscard]] inline bool is_update_kind(c11::ActionKind k) {
  return k == c11::ActionKind::kUpdRA || k == c11::ActionKind::kUpdSC;
}

[[nodiscard]] inline bool is_fence_kind(c11::ActionKind k) {
  return k == c11::ActionKind::kFenceAcq || k == c11::ActionKind::kFenceRel ||
         k == c11::ActionKind::kFenceAR || k == c11::ActionKind::kFenceSC;
}

[[nodiscard]] inline bool is_sc_kind(c11::ActionKind k) {
  return k == c11::ActionKind::kRdSC || k == c11::ActionKind::kWrSC ||
         k == c11::ActionKind::kUpdSC || k == c11::ActionKind::kFenceSC;
}

/// Syntactic independence (sufficient for commutation in the RC11
/// semantics; see the file comment for the clause-by-clause rationale).
[[nodiscard]] inline bool independent(const StepSig& a, const StepSig& b) {
  if (a.thread == b.thread) return false;
  if (a.silent || b.silent) return true;
  const bool af = is_fence_kind(a.kind);
  const bool bf = is_fence_kind(b.kind);
  if (af && bf) {
    return !(a.kind == c11::ActionKind::kFenceSC &&
             b.kind == c11::ActionKind::kFenceSC);
  }
  if (af || bf) return false;
  if (a.sc_coupled || b.sc_coupled) return false;
  if (is_sc_kind(a.kind) && is_sc_kind(b.kind)) return false;
  if (a.var != b.var) return true;
  return is_read_kind(a.kind) && is_read_kind(b.kind);
}

[[nodiscard]] inline bool dependent(const StepSig& a, const StepSig& b) {
  return !independent(a, b);
}

/// Fills `sigs` with the signature of every step in `steps` (cleared
/// first) — the one definition of step-signature construction that every
/// explorer and both DPOR engines (source-set and optimal) consume.
/// `exec` is the execution the steps were enumerated from. While its
/// incremental cache is valid, each observed write's canonical id is read
/// from the ids push_event maintains (O(1) per step); otherwise
/// (materialized and pre-execution configurations) every event's id is
/// recomputed once for the frame (interp::canonical_event_ids, O(events)).
template <typename StepVec>
inline void sigs_of(const StepVec& steps, const c11::Execution& exec,
                    std::vector<StepSig>& sigs, bool sc_coupled = false) {
  sigs.clear();
  sigs.reserve(steps.size());
  if (const std::vector<std::uint64_t>* packed = exec.cids_if_cached()) {
    const auto cid_of = [&](c11::EventId w) {
      return maintained_canonical_id(exec, *packed, w);
    };
    for (const auto& s : steps) sigs.push_back(sig_of(s, cid_of, sc_coupled));
    return;
  }
  thread_local std::vector<interp::CanonicalEventId> cids;
  interp::canonical_event_ids(exec, cids);
  const auto cid_of = [&](c11::EventId w) { return cids[w]; };
  for (const auto& s : steps) sigs.push_back(sig_of(s, cid_of, sc_coupled));
}

// --- Trace happens-before over step signatures -------------------------------
//
// Both DPOR engines detect races on the explored trace E = e_1..e_d with
// the same machinery: hb is the transitive closure of pairwise dependence
// along the trace, every trace event caches its own hb row, and each
// executed transition builds exactly one new row. The helpers are
// parameterized over accessors so the engines can keep their rows inside
// their tree nodes: sig_at(k) yields the signature of trace event e_k,
// row_at(k) its cached row (row_at(k)[i] != 0 iff e_i ->hb e_k).

/// Builds the hb row of a step `t_sig` about to extend the trace: on
/// return row[i] != 0 iff e_i ->hb t (first-hop recurrence, i descending:
/// hb(i, t) = dep(i, t) or exists k in (i, d] with dep(i, k) and hb(k, t)).
/// `row` is assigned depth+1 entries (index 0 is unused).
template <typename SigAt>
inline void build_hb_row(std::size_t depth, const StepSig& t_sig,
                         const SigAt& sig_at, std::vector<char>& row) {
  row.assign(depth + 1, 0);
  for (std::size_t i = depth; i >= 1; --i) {
    char r = dependent(sig_at(i), t_sig) ? 1 : 0;
    for (std::size_t k = i + 1; r == 0 && k <= depth; ++k) {
      if (row[k] && dependent(sig_at(i), sig_at(k))) r = 1;
    }
    row[i] = r;
  }
}

/// Calls fn(i) for every *reversible race* between t and the trace: e_i of
/// another thread, dependent with t, with no intermediate k such that
/// e_i ->hb e_k ->hb t. `row` is t's hb row from build_hb_row.
template <typename SigAt, typename RowAt, typename Fn>
inline void for_each_reversible_race(std::size_t depth, const StepSig& t_sig,
                                     const SigAt& sig_at, const RowAt& row_at,
                                     const std::vector<char>& row, Fn&& fn) {
  for (std::size_t i = 1; i <= depth; ++i) {
    const StepSig& e = sig_at(i);
    if (e.thread == t_sig.thread || independent(e, t_sig)) continue;
    bool direct = true;
    for (std::size_t k = i + 1; k <= depth && direct; ++k) {
      if (row_at(k)[i] != 0 && row[k] != 0) direct = false;
    }
    if (direct) fn(i);
  }
}

/// Appends to `out` the trace indices k in (i, depth] whose step does not
/// happen-after e_i — notdep(e_i, E); the caller appends the racing step t
/// itself to complete v = notdep(e_i, E).t.
template <typename RowAt>
inline void notdep_indices(std::size_t i, std::size_t depth,
                           const RowAt& row_at,
                           std::vector<std::size_t>& out) {
  out.clear();
  for (std::size_t k = i + 1; k <= depth; ++k) {
    if (row_at(k)[i] == 0) out.push_back(k);
  }
}

/// Indices j of the weak initials WI(v) of a sequence of n signatures
/// (sig(j) yields the j-th): steps with no dependent predecessor in the
/// sequence. Each weak initial is necessarily its thread's first step in
/// the sequence (an earlier same-thread step would be a dependent
/// predecessor), so the initial *threads* of source-set DPOR are exactly
/// the threads of these indices.
template <typename SigIdx>
inline void weak_initial_indices(std::size_t n, const SigIdx& sig,
                                 std::vector<std::size_t>& out) {
  out.clear();
  for (std::size_t j = 0; j < n; ++j) {
    bool initial = true;
    for (std::size_t b = 0; b < j && initial; ++b) {
      if (dependent(sig(b), sig(j))) initial = false;
    }
    if (initial) out.push_back(j);
  }
}

/// Sorted signature vector; subset/intersection use the ordering.
using SleepSet = std::vector<StepSig>;

[[nodiscard]] inline bool sleep_contains(const SleepSet& sleep,
                                         const StepSig& sig) {
  return std::binary_search(sleep.begin(), sleep.end(), sig);
}

[[nodiscard]] inline bool is_subset(const SleepSet& a, const SleepSet& b) {
  return std::includes(b.begin(), b.end(), a.begin(), a.end());
}

[[nodiscard]] inline SleepSet intersection(const SleepSet& a,
                                           const SleepSet& b) {
  SleepSet out;
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(out));
  return out;
}

/// Successor sleep set after taking `taken` from a state explored with
/// `sleep`, where `sigs` are all transition signatures of the state and
/// `taken_index` the index of the taken one: everything slept on here plus
/// the earlier sibling transitions, filtered down to what commutes with the
/// taken step (Godefroid's sleep-set rule).
[[nodiscard]] inline SleepSet successor_sleep(
    const SleepSet& sleep, const std::vector<StepSig>& sigs,
    std::size_t taken_index) {
  const StepSig& taken = sigs[taken_index];
  SleepSet out;
  for (const StepSig& s : sleep) {
    if (independent(s, taken)) out.push_back(s);
  }
  for (std::size_t j = 0; j < taken_index; ++j) {
    if (!sleep_contains(sleep, sigs[j]) && independent(sigs[j], taken)) {
      out.push_back(sigs[j]);
    }
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

}  // namespace rc11::mc
