#include "interp/config.hpp"

#include <algorithm>
#include <cassert>
#include <sstream>

#include "c11/axioms.hpp"
#include "c11/derived.hpp"
#include "c11/observability.hpp"
#include "obs/telemetry.hpp"

namespace rc11::interp {

int Config::pc(ThreadId t) const {
  return lang::leading_label(cont[t - 1], kDonePc);
}

bool Config::terminated() const {
  for (const auto& c : cont) {
    if (!lang::is_terminated(c)) return false;
  }
  return true;
}

std::string Config::canonical_key() const {
  std::ostringstream os;
  for (std::uint64_t w : exec.canonical_key()) os << w << ',';
  os << '|';
  for (std::size_t i = 0; i < cont.size(); ++i) {
    os << cont[i]->to_string() << '|';
    for (Value v : regs[i]) os << v << ',';
    os << '|' << unfoldings[i] << '|';
  }
  return os.str();
}

namespace {

/// The thread state's share of the fingerprint, hashed on top of the
/// execution's material: continuations, registers, unfold counts.
util::Fingerprint finish_with_threads(const Config& c,
                                      util::FingerprintHasher& h) {
  h.mix(c.cont.size());
  for (std::size_t i = 0; i < c.cont.size(); ++i) {
    h.mix(lang::structural_hash(c.cont[i]));
    h.mix(c.regs[i].size());
    for (Value v : c.regs[i]) h.mix_signed(v);
    h.mix(static_cast<std::uint64_t>(c.unfoldings[i]));
  }
  return h.finish();
}

}  // namespace

util::Fingerprint Config::fingerprint() const {
  obs::ScopedPhase fp_phase(obs::Phase::kFingerprint);
  util::FingerprintHasher h;
  exec.fingerprint_into(h);
  return finish_with_threads(*this, h);
}

util::Fingerprint pending_fingerprint(const Config& c, const Step& s) {
  if (s.silent) return c.fingerprint();
  obs::ScopedPhase fp_phase(obs::Phase::kFingerprint);
  util::FingerprintHasher h;
  c.exec.pending_fingerprint_into(h, s.thread, s.action, s.observed);
  return finish_with_threads(c, h);
}

Config initial_config(const Program& p) {
  Config c;
  c.program = &p;
  c.exec = Execution::initial(p.initial_values());
  const std::size_t threads = p.thread_count();
  c.cont.reserve(threads);
  for (ThreadId t = 1; t <= threads; ++t) c.cont.push_back(p.thread(t));
  c.regs.assign(threads, RegFile(p.reg_count(), 0));
  c.unfoldings.assign(threads, 0);
  const lang::ScFeatures feats = lang::scan_sc_features(p);
  c.has_sc = feats.has_sc;
  c.has_sc_fence = feats.has_sc_fence;
  return c;
}

namespace {

/// The kind of the AST node that produces the next step of c: labels are
/// transparent, and inside a sequence the step comes from c1 unless c1 has
/// terminated (in which case the Seq node itself emits the skip-elimination
/// silent step). A step is a while-unfolding iff this is kWhile.
lang::ComKind stepping_node_kind(const lang::ComPtr& c) {
  switch (c->kind) {
    case lang::ComKind::kLabel:
      return stepping_node_kind(c->c1);
    case lang::ComKind::kSeq:
      if (lang::is_terminated(c->c1)) return lang::ComKind::kSeq;
      return stepping_node_kind(c->c1);
    default:
      return c->kind;
  }
}

/// Applies the thread-local (non-memory) part of a step to a copy of c.
Config advance_thread(const Config& c, ThreadId t, ComPtr next) {
  Config out = c;
  out.cont[t - 1] = std::move(next);
  return out;
}

void write_register(RegFile& file, lang::RegId r, Value v) {
  if (r >= file.size()) file.resize(r + 1, 0);
  file[r] = v;
}

c11::Action fence_action(lang::FenceMode m) {
  switch (m) {
    case lang::FenceMode::kAcquire:
      return c11::Action::fence_acq();
    case lang::FenceMode::kRelease:
      return c11::Action::fence_rel();
    case lang::FenceMode::kAcqRel:
      return c11::Action::fence_ar();
    case lang::FenceMode::kSeqCst:
      return c11::Action::fence_sc();
  }
  return c11::Action::fence_sc();
}

/// Sc-axiom filter for SC programs: a candidate push is enabled only if the
/// successor's psc stays acyclic. (Every psc constituent restricts exactly
/// to sb u rf-downward-closed prefixes, so per-step filtering is complete:
/// any Sc-consistent full execution is reachable through filtered steps.)
bool sc_push_ok(const c11::Execution& next) {
  return c11::check_sc(next, c11::compute_derived(next));
}

/// True iff a drain may fuse an unfolding of a thread that has taken
/// `unfoldings` of them: only a bounded search does, below its bound.
bool unfold_fusible(const StepOptions& opts, int unfoldings) {
  return opts.loop_bound >= 0 && unfoldings < opts.loop_bound;
}

/// Greedily applies, for every thread, the pending steps opts.tau_compress
/// fuses: its deterministic silent / register steps under kFused, its
/// stutters under kStutterFree, and under both the unfoldings the bound
/// allows. All of these commute with every other thread's step because
/// they touch no shared state. The from-scratch drain behind successors():
/// it decides a stutter by building the step and comparing pcs and
/// termination, which lang::is_stutter decides without building.
void apply_tau_compression(Config& c, const StepOptions& opts) {
  const TauCompress g = opts.tau_compress;
  bool changed = true;
  while (changed) {
    changed = false;
    for (ThreadId t = 1; t <= c.thread_count(); ++t) {
      const ComPtr k = c.cont[t - 1];
      const bool unfold = stepping_node_kind(k) == lang::ComKind::kWhile;
      if (unfold && !unfold_fusible(opts, c.unfoldings[t - 1])) continue;
      auto s = lang::step(k, c.regs[t - 1]);
      if (!s) continue;
      if (auto* sil = std::get_if<lang::SilentStep>(&*s)) {
        if (g == TauCompress::kStutterFree &&
            (lang::leading_label(sil->next, kDonePc) !=
                 lang::leading_label(k, kDonePc) ||
             lang::is_terminated(sil->next) != lang::is_terminated(k))) {
          continue;
        }
        c.cont[t - 1] = sil->next;
        if (unfold) ++c.unfoldings[t - 1];
        changed = true;
      } else if (auto* rw = std::get_if<lang::RegWriteStep>(&*s);
                 rw != nullptr && g == TauCompress::kFused) {
        write_register(c.regs[t - 1], rw->reg, rw->value);
        c.cont[t - 1] = rw->next;
        changed = true;
      }
    }
  }
  c.tau_normal = g;
}

}  // namespace

std::vector<ConfigStep> successors(const Config& c, const StepOptions& opts) {
  std::vector<ConfigStep> out;
  const c11::DerivedRelations derived = c11::compute_derived(c.exec);

  for (ThreadId t = 1; t <= c.thread_count(); ++t) {
    auto s = lang::step(c.cont[t - 1], c.regs[t - 1]);
    if (!s) continue;

    auto finish = [&](ConfigStep step) {
      if (opts.tau_compress != TauCompress::kEveryStep) {
        apply_tau_compression(step.next, opts);
      } else {
        step.next.tau_normal = TauCompress::kEveryStep;
      }
      out.push_back(std::move(step));
    };

    if (auto* sil = std::get_if<lang::SilentStep>(&*s)) {
      const bool is_unfold =
          stepping_node_kind(c.cont[t - 1]) == lang::ComKind::kWhile;
      if (is_unfold && opts.loop_bound >= 0 &&
          c.unfoldings[t - 1] >= opts.loop_bound) {
        continue;  // bounded out
      }
      ConfigStep step;
      step.next = advance_thread(c, t, sil->next);
      if (is_unfold) {
        ++step.next.unfoldings[t - 1];
        step.loop_unfold = true;
      }
      step.thread = t;
      finish(std::move(step));
      continue;
    }

    if (auto* rw = std::get_if<lang::RegWriteStep>(&*s)) {
      ConfigStep step;
      step.next = advance_thread(c, t, rw->next);
      write_register(step.next.regs[t - 1], rw->reg, rw->value);
      step.thread = t;
      finish(std::move(step));
      continue;
    }

    if (auto* fe = std::get_if<lang::FenceStep>(&*s)) {
      // Fence rule: exactly one successor, no observed write. Fences alone
      // never close a psc cycle (a just-pushed fence has no outgoing hb),
      // so no Sc filter is needed.
      c11::RaStep ra = c11::apply_fence(c.exec, t, fence_action(fe->mode));
      ConfigStep step;
      step.next = advance_thread(c, t, fe->next);
      step.next.exec = std::move(ra.next);
      step.thread = t;
      step.silent = false;
      step.event = ra.event;
      step.action = step.next.exec.event(ra.event).action;
      finish(std::move(step));
      continue;
    }

    if (auto* rd = std::get_if<lang::ReadStep>(&*s)) {
      for (const c11::ReadOption& opt :
           c11::read_options(c.exec, derived, t, rd->var)) {
        const c11::Action a =
            rd->sc          ? c11::Action::rd_sc(rd->var, opt.value)
            : rd->nonatomic ? c11::Action::rd_na(rd->var, opt.value)
            : rd->acquire   ? c11::Action::rd_acq(rd->var, opt.value)
                            : c11::Action::rd(rd->var, opt.value);
        c11::RaStep ra = c11::apply_action(c.exec, t, a, opt.write);
        if (c.has_sc && !sc_push_ok(ra.next)) continue;
        ConfigStep step;
        step.next = advance_thread(c, t, rd->next(opt.value));
        step.next.exec = std::move(ra.next);
        step.thread = t;
        step.silent = false;
        step.event = ra.event;
        step.observed = ra.observed;
        step.action = step.next.exec.event(ra.event).action;
        finish(std::move(step));
      }
      continue;
    }

    if (auto* wr = std::get_if<lang::WriteStep>(&*s)) {
      for (EventId w : c11::write_options(c.exec, derived, t, wr->var)) {
        const c11::Action a =
            wr->sc          ? c11::Action::wr_sc(wr->var, wr->value)
            : wr->nonatomic ? c11::Action::wr_na(wr->var, wr->value)
            : wr->release   ? c11::Action::wr_rel(wr->var, wr->value)
                            : c11::Action::wr(wr->var, wr->value);
        c11::RaStep ra = c11::apply_action(c.exec, t, a, w);
        if (c.has_sc && !sc_push_ok(ra.next)) continue;
        ConfigStep step;
        step.next = advance_thread(c, t, wr->next);
        step.next.exec = std::move(ra.next);
        step.thread = t;
        step.silent = false;
        step.event = ra.event;
        step.observed = ra.observed;
        step.action = step.next.exec.event(ra.event).action;
        finish(std::move(step));
      }
      continue;
    }

    auto* up = std::get_if<lang::UpdateStep>(&*s);
    for (const c11::ReadOption& opt :
         c11::update_options(c.exec, derived, t, up->var)) {
      const c11::Action a =
          up->sc ? c11::Action::upd_sc(up->var, opt.value, up->new_value)
                 : c11::Action::upd(up->var, opt.value, up->new_value);
      c11::RaStep ra = c11::apply_action(c.exec, t, a, opt.write);
      if (c.has_sc && !sc_push_ok(ra.next)) continue;
      ConfigStep step;
      step.next = advance_thread(c, t, up->next);
      step.next.exec = std::move(ra.next);
      if (up->captures) {
        write_register(step.next.regs[t - 1], up->capture_reg, opt.value);
      }
      step.thread = t;
      step.silent = false;
      step.event = ra.event;
      step.observed = ra.observed;
      step.action = step.next.exec.event(ra.event).action;
      finish(std::move(step));
    }
  }
  return out;
}

namespace {

/// Appends thread t's enabled transitions to `out`, in oracle
/// (successors()) order. The caller has pinned the Execution's per-thread
/// cache vectors via reserve_cache_threads, so the references taken here
/// never dangle across the lazy cached_* growth paths.
void enumerate_thread_steps(Config& c, ThreadId t, const StepOptions& opts,
                            std::vector<Step>& out) {
  c11::Execution& ex = c.exec;

  // peek_step classifies the enabled transition without materialising
  // continuations (no folded expression copies, no Seq-spine rebuild, no
  // std::function closures) — enumeration only needs kind / var / value.
  const lang::StepPeek pk = lang::peek_step(c.cont[t - 1], c.regs[t - 1]);

  if (pk.kind == lang::PeekKind::kNone) return;

  if (pk.kind == lang::PeekKind::kSilent) {
    if (pk.loop_unfold && opts.loop_bound >= 0 &&
        c.unfoldings[t - 1] >= opts.loop_bound) {
      return;  // bounded out
    }
    Step step;
    step.thread = t;
    step.loop_unfold = pk.loop_unfold;
    out.push_back(step);
    return;
  }
  if (pk.kind == lang::PeekKind::kRegWrite) {
    Step step;
    step.thread = t;
    out.push_back(step);
    return;
  }
  if (pk.kind == lang::PeekKind::kFence) {
    // Fence rule: always enabled, exactly one transition, no observed write.
    Step step;
    step.thread = t;
    step.silent = false;
    step.action = fence_action(pk.fence);
    out.push_back(step);
    return;
  }

  // Memory steps: the observable / covered sets come from the
  // incrementally maintained cache — no closures.
  const util::Bitset& covered = ex.cached_covered();
  const util::Bitset& ew = ex.cached_encountered(t);
  const util::Bitset& wx = ex.cached_var_writes(pk.var);

  if (pk.kind == lang::PeekKind::kRead) {
    wx.for_each([&](std::size_t w) {
      if (!ex.mo().row(w).disjoint(ew)) return;  // not observable
      Step step;
      step.thread = t;
      step.silent = false;
      step.observed = static_cast<EventId>(w);
      const Value v = ex.event(static_cast<EventId>(w)).wrval();
      step.action = pk.sc          ? c11::Action::rd_sc(pk.var, v)
                    : pk.nonatomic ? c11::Action::rd_na(pk.var, v)
                    : pk.acquire   ? c11::Action::rd_acq(pk.var, v)
                                   : c11::Action::rd(pk.var, v);
      out.push_back(step);
    });
    return;
  }

  if (pk.kind == lang::PeekKind::kWrite) {
    wx.for_each([&](std::size_t w) {
      if (covered.test(w)) return;  // covered writes take no successor
      if (!ex.mo().row(w).disjoint(ew)) return;
      Step step;
      step.thread = t;
      step.silent = false;
      step.observed = static_cast<EventId>(w);
      step.action = pk.sc          ? c11::Action::wr_sc(pk.var, pk.value)
                    : pk.nonatomic ? c11::Action::wr_na(pk.var, pk.value)
                    : pk.release   ? c11::Action::wr_rel(pk.var, pk.value)
                                   : c11::Action::wr(pk.var, pk.value);
      out.push_back(step);
    });
    return;
  }

  assert(pk.kind == lang::PeekKind::kUpdate);
  wx.for_each([&](std::size_t w) {
    if (covered.test(w)) return;
    if (!ex.mo().row(w).disjoint(ew)) return;
    Step step;
    step.thread = t;
    step.silent = false;
    step.observed = static_cast<EventId>(w);
    const Value m = ex.event(static_cast<EventId>(w)).wrval();
    step.action = pk.sc ? c11::Action::upd_sc(pk.var, m, pk.value)
                        : c11::Action::upd(pk.var, m, pk.value);
    out.push_back(step);
  });
}

/// Drops every enumerated memory step whose push would violate the Sc
/// axiom. Only runs for SC programs; fences are skipped (a just-pushed
/// fence has no outgoing hb, so it never closes a psc cycle). Each
/// candidate is pushed, checked by c11::sc_ok_after_push, which searches
/// only for a psc cycle through the new event on the maintained hb and eco,
/// and popped. Its precondition, that the state before the push satisfies
/// Sc, holds at every node: every state is reached through filtered steps
/// (or fences) from the initial state. The from-scratch check stays the
/// oracle in successors(). Runs as a separate pass after enumeration: the
/// trial pushes mutate the Execution's incremental cache, which the
/// enumeration loop holds references into.
void filter_sc_steps(Config& c, std::vector<Step>& out) {
  c11::Execution& ex = c.exec;
  thread_local c11::Execution::UndoToken tok;
  std::size_t kept = 0;
  for (Step& s : out) {
    bool ok = true;
    if (!s.silent && !s.action.is_fence()) {
      ex.push_event(s.thread, s.action, s.observed, tok);
      ok = c11::sc_ok_after_push(ex);
      ex.pop_event(tok);
    }
    if (ok) out[kept++] = s;
  }
  out.resize(kept);
}

}  // namespace

void prepare_cache(Config& c) {
  c.exec.reserve_cache_threads(static_cast<c11::ThreadId>(c.thread_count()));
}

void enumerate_steps(Config& c, const StepOptions& opts,
                     std::vector<Step>& out) {
  out.clear();
  c11::Execution& ex = c.exec;
  // Pin the per-thread cache vectors to cover every program thread up
  // front: the references taken inside enumerate_thread_steps alias vector
  // elements, and a lazy grow for a not-yet-acting thread mid-enumeration
  // would invalidate them.
  prepare_cache(c);
#ifndef NDEBUG
  const std::size_t pinned_threads = ex.cached_thread_count();
#endif
  for (ThreadId t = 1; t <= c.thread_count(); ++t) {
    enumerate_thread_steps(c, t, opts, out);
  }
  assert(ex.cached_thread_count() == pinned_threads &&
         "per-thread cache vectors reallocated mid-enumeration");
  if (c.has_sc) filter_sc_steps(c, out);
}

namespace {

/// What a drain does with a thread's next step.
enum class Fuse : std::uint8_t {
  kNo,      ///< the step stays a transition (or none is enabled)
  kStep,    ///< a silent or register step that fuses
  kUnfold,  ///< an unfolding that fuses, adding one to the unfold count
};

/// How opts.tau_compress treats thread u's next step under opts.loop_bound.
/// Decided by peeking, so the step that ends a drain builds no
/// continuation.
Fuse fuses_next(const StepOptions& opts, const Config& c, ThreadId u) {
  const ComPtr& k = c.cont[u - 1];
  const RegFile& regs = c.regs[u - 1];
  if (opts.tau_compress == TauCompress::kStutterFree) {
    if (lang::is_stutter(k, regs, kDonePc)) return Fuse::kStep;
    return stepping_node_kind(k) == lang::ComKind::kWhile &&
                   unfold_fusible(opts, c.unfoldings[u - 1])
               ? Fuse::kUnfold
               : Fuse::kNo;
  }
  const lang::StepPeek pk = lang::peek_step(k, regs);
  if (pk.loop_unfold) {
    return unfold_fusible(opts, c.unfoldings[u - 1]) ? Fuse::kUnfold
                                                     : Fuse::kNo;
  }
  return pk.kind == lang::PeekKind::kSilent ||
                 pk.kind == lang::PeekKind::kRegWrite
             ? Fuse::kStep
             : Fuse::kNo;
}

void ensure_saved(Config& c, StepUndo* undo, ThreadId u) {
  if (undo == nullptr) return;
  for (auto& snap : undo->saved) {
    if (snap.thread == u) return;
  }
  auto& snap = undo->saved.emplace_back();
  snap.thread = u;
  snap.cont = c.cont[u - 1];
  snap.regs = c.regs[u - 1];
  snap.unfoldings = c.unfoldings[u - 1];
}

/// The thread half of a step; `undo == nullptr` skips all snapshotting
/// (the apply-only overload for callers that keep the result).
void apply_thread_half_impl(Config& c, const Step& s, const StepOptions& opts,
                            StepUndo* undo) {
  const ThreadId t = s.thread;
  if (undo != nullptr) {
    undo->thread = t;
    undo->event = c11::kNoEvent;
    undo->saved.clear();
    undo->prev_tau_normal = c.tau_normal;
  }
  ensure_saved(c, undo, t);

  auto sv = lang::step(c.cont[t - 1], c.regs[t - 1]);
  assert(sv.has_value());

  if (s.silent) {
    if (auto* sil = std::get_if<lang::SilentStep>(&*sv)) {
      c.cont[t - 1] = sil->next;
      if (s.loop_unfold) ++c.unfoldings[t - 1];
    } else {
      auto* rw = std::get_if<lang::RegWriteStep>(&*sv);
      assert(rw != nullptr);
      write_register(c.regs[t - 1], rw->reg, rw->value);
      c.cont[t - 1] = rw->next;
    }
  } else if (auto* rd = std::get_if<lang::ReadStep>(&*sv)) {
    c.cont[t - 1] = rd->next(s.action.rdval());
  } else if (auto* wr = std::get_if<lang::WriteStep>(&*sv)) {
    c.cont[t - 1] = wr->next;
  } else if (auto* fe = std::get_if<lang::FenceStep>(&*sv)) {
    c.cont[t - 1] = fe->next;
  } else {
    auto* up = std::get_if<lang::UpdateStep>(&*sv);
    assert(up != nullptr);
    c.cont[t - 1] = up->next;
    if (up->captures) {
      write_register(c.regs[t - 1], up->capture_reg, s.action.rdval());
    }
  }

  const TauCompress g = opts.tau_compress;
  if (g != TauCompress::kEveryStep) {
    // Same fixpoint as apply_tau_compression, computed thread-locally:
    // whether a thread's next step fuses depends only on its own
    // continuation, registers and unfold count, so each thread can be
    // drained to exhaustion in one pass (no global re-rounds). The chain is
    // finite: the bound caps the unfoldings in it. First-touch snapshots
    // make the drain undo exactly.
    //
    // When the config is already drained at this granularity only the
    // acting thread can have gained fusible steps (the apply touched no
    // other thread's state), so the drain is O(1) threads, not
    // O(thread_count) — the common case along every exploration spine.
    const auto drain = [&](ThreadId u) {
      // fuses_next peeks: the loop's exit iteration (a memory step, a
      // pc-changing silent step, an unfolding at the bound, or
      // termination) would otherwise pay a full step() — with its
      // continuation allocations — just to discard it.
      for (Fuse f; (f = fuses_next(opts, c, u)) != Fuse::kNo;) {
        auto tv = lang::step(c.cont[u - 1], c.regs[u - 1]);
        assert(tv.has_value());
        if (auto* sil = std::get_if<lang::SilentStep>(&*tv)) {
          ensure_saved(c, undo, u);
          c.cont[u - 1] = sil->next;
          if (f == Fuse::kUnfold) ++c.unfoldings[u - 1];
        } else {
          auto* rw = std::get_if<lang::RegWriteStep>(&*tv);
          assert(rw != nullptr);
          ensure_saved(c, undo, u);
          write_register(c.regs[u - 1], rw->reg, rw->value);
          c.cont[u - 1] = rw->next;
        }
      }
    };
    if (c.tau_normal >= g) {
      drain(t);
    } else {
      for (ThreadId u = 1; u <= c.thread_count(); ++u) drain(u);
    }
  }
  c.tau_normal = g;
}

/// The memory half of a step: its push_event, if it has one.
EventId push_step_event(Config& c, const Step& s,
                        c11::Execution::UndoToken& tok) {
  if (s.silent) return c11::kNoEvent;
  obs::ScopedPhase push_phase(obs::Phase::kPushEvent);
  return c.exec.push_event(s.thread, s.action, s.observed, tok);
}

}  // namespace

void apply_thread_half(Config& c, const Step& s, const StepOptions& opts,
                       StepUndo& undo) {
  apply_thread_half_impl(c, s, opts, &undo);
}

EventId apply_memory_half(Config& c, const Step& s, StepUndo& undo) {
  undo.event = push_step_event(c, s, undo.exec);
  return undo.event;
}

EventId apply_step(Config& c, const Step& s, const StepOptions& opts,
                   StepUndo& undo) {
  apply_thread_half(c, s, opts, undo);
  return apply_memory_half(c, s, undo);
}

EventId apply_step(Config& c, const Step& s, const StepOptions& opts) {
  apply_thread_half_impl(c, s, opts, nullptr);
  // The exec undo token is discarded: a reusable scratch.
  thread_local c11::Execution::UndoToken scratch_tok;
  return push_step_event(c, s, scratch_tok);
}

void undo_step(Config& c, const StepUndo& undo) {
  if (undo.event != c11::kNoEvent) c.exec.pop_event(undo.exec);
  for (const auto& snap : undo.saved) {
    c.cont[snap.thread - 1] = snap.cont;
    c.regs[snap.thread - 1] = snap.regs;
    c.unfoldings[snap.thread - 1] = snap.unfoldings;
  }
  c.tau_normal = undo.prev_tau_normal;
}

std::vector<CanonicalEventId> canonical_event_ids(const c11::Execution& exec) {
  std::vector<CanonicalEventId> out;
  canonical_event_ids(exec, out);
  return out;
}

void canonical_event_ids(const c11::Execution& exec,
                         std::vector<CanonicalEventId>& out) {
  out.resize(exec.size());
  thread_local std::vector<std::uint32_t> rank;
  rank.assign(static_cast<std::size_t>(exec.max_thread()) + 1, 0);
  for (EventId e = 0; e < exec.size(); ++e) {
    const c11::ThreadId t = exec.event(e).tid;
    out[e] = {t, rank[t]++};
  }
}

bool eval_cond(const lang::CondPtr& cond, const Config& c) {
  switch (cond->kind) {
    case lang::CondKind::kTrue:
      return true;
    case lang::CondKind::kRegCmp: {
      const auto& file = c.regs[cond->thread - 1];
      const Value v = cond->reg < file.size() ? file[cond->reg] : 0;
      return lang::apply_bin_op(cond->op, v, cond->value) != 0;
    }
    case lang::CondKind::kVarCmp: {
      const EventId w = c.exec.last(cond->var);
      const Value v = w == c11::kNoEvent ? 0 : c.exec.event(w).wrval();
      return lang::apply_bin_op(cond->op, v, cond->value) != 0;
    }
    case lang::CondKind::kNot:
      return !eval_cond(cond->lhs, c);
    case lang::CondKind::kAnd:
      return eval_cond(cond->lhs, c) && eval_cond(cond->rhs, c);
    case lang::CondKind::kOr:
      return eval_cond(cond->lhs, c) || eval_cond(cond->rhs, c);
  }
  return false;
}

}  // namespace rc11::interp
