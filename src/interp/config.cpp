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

util::Fingerprint Config::fingerprint() const {
  obs::ScopedPhase fp_phase(obs::Phase::kFingerprint);
  util::FingerprintHasher h;
  exec.fingerprint_into(h);
  h.mix(cont.size());
  for (std::size_t i = 0; i < cont.size(); ++i) {
    h.mix(lang::structural_hash(cont[i]));
    h.mix(regs[i].size());
    for (Value v : regs[i]) h.mix_signed(v);
    h.mix(static_cast<std::uint64_t>(unfoldings[i]));
  }
  return h.finish();
}

Config initial_config(const Program& p) {
  Config c;
  c.program = &p;
  c.exec = Execution::initial(p.initial_values());
  for (ThreadId t = 1; t <= p.thread_count(); ++t) {
    c.cont.push_back(p.thread(t));
    c.regs.emplace_back(p.reg_count(), 0);
    c.unfoldings.push_back(0);
  }
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

/// Greedily applies deterministic silent / register steps of every thread.
/// Loop unfoldings are NOT compressed: they are bounded and branch the
/// search, so they must remain visible transitions. Everything else that is
/// silent commutes with all other threads' steps because it touches no
/// shared state.
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

void apply_tau_compression(Config& c) {
  bool changed = true;
  while (changed) {
    changed = false;
    for (ThreadId t = 1; t <= c.thread_count(); ++t) {
      if (stepping_node_kind(c.cont[t - 1]) == lang::ComKind::kWhile) {
        continue;
      }
      auto s = lang::step(c.cont[t - 1], c.regs[t - 1]);
      if (!s) continue;
      if (auto* sil = std::get_if<lang::SilentStep>(&*s)) {
        c.cont[t - 1] = sil->next;
        changed = true;
      } else if (auto* rw = std::get_if<lang::RegWriteStep>(&*s)) {
        write_register(c.regs[t - 1], rw->reg, rw->value);
        c.cont[t - 1] = rw->next;
        changed = true;
      }
    }
  }
  c.tau_normal = true;
}

}  // namespace

std::vector<ConfigStep> successors(const Config& c, const StepOptions& opts) {
  std::vector<ConfigStep> out;
  const c11::DerivedRelations derived = c11::compute_derived(c.exec);

  for (ThreadId t = 1; t <= c.thread_count(); ++t) {
    auto s = lang::step(c.cont[t - 1], c.regs[t - 1]);
    if (!s) continue;

    auto finish = [&](ConfigStep step) {
      if (opts.tau_compress) {
        apply_tau_compression(step.next);
      } else {
        step.next.tau_normal = false;
      }
      // The materialized path mutates continuations / registers / the
      // whole Execution directly rather than through apply_step, so the
      // copied step cache is wholesale stale.
      step.next.step_cache.invalidate();
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

/// Classification of one thread's enumeration: whether the peeked step was
/// a memory access, and on which variable (the step cache's lazy-validation
/// key).
struct ThreadEnumClass {
  bool memory = false;
  c11::VarId var = 0;
};

/// Appends thread t's enabled transitions to `out`, in oracle
/// (successors()) order. The caller has pinned the Execution's per-thread
/// cache vectors via reserve_cache_threads, so the references taken here
/// never dangle across the lazy cached_* growth paths.
ThreadEnumClass enumerate_thread_steps(Config& c, ThreadId t,
                                       const StepOptions& opts,
                                       std::vector<Step>& out) {
  c11::Execution& ex = c.exec;
  ThreadEnumClass cls;

  // peek_step classifies the enabled transition without materialising
  // continuations (no folded expression copies, no Seq-spine rebuild, no
  // std::function closures) — enumeration only needs kind / var / value.
  const lang::StepPeek pk = lang::peek_step(c.cont[t - 1], c.regs[t - 1]);

  if (pk.kind == lang::PeekKind::kNone) return cls;

  if (pk.kind == lang::PeekKind::kSilent) {
    if (pk.loop_unfold && opts.loop_bound >= 0 &&
        c.unfoldings[t - 1] >= opts.loop_bound) {
      return cls;  // bounded out
    }
    Step step;
    step.thread = t;
    step.loop_unfold = pk.loop_unfold;
    out.push_back(step);
    return cls;
  }
  if (pk.kind == lang::PeekKind::kRegWrite) {
    Step step;
    step.thread = t;
    out.push_back(step);
    return cls;
  }
  if (pk.kind == lang::PeekKind::kFence) {
    // Fence rule: always enabled, exactly one transition, no observed
    // write. Not classified as `memory`: the transition does not depend on
    // any variable's observability, so the cached entry can only go stale
    // through the thread-local dirty bit.
    Step step;
    step.thread = t;
    step.silent = false;
    step.action = fence_action(pk.fence);
    out.push_back(step);
    return cls;
  }

  // Memory steps: the observable / covered sets come from the
  // incrementally maintained cache — no closures.
  cls.memory = true;
  cls.var = pk.var;
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
    return cls;
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
    return cls;
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
  return cls;
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

StepEnumCounters& step_enum_counters() {
  thread_local StepEnumCounters counters;
  return counters;
}

void enumerate_steps_uncached(Config& c, const StepOptions& opts,
                              std::vector<Step>& out) {
  out.clear();
  c11::Execution& ex = c.exec;
  ex.ensure_cache();
  ex.reserve_cache_threads(static_cast<c11::ThreadId>(c.thread_count()));
  for (ThreadId t = 1; t <= c.thread_count(); ++t) {
    enumerate_thread_steps(c, t, opts, out);
  }
  if (c.has_sc) filter_sc_steps(c, out);
}

void enumerate_steps(Config& c, const StepOptions& opts,
                     std::vector<Step>& out) {
  if (c.has_sc) {
    // The Sc filter couples a thread's enabled set to every other thread's
    // events (a push anywhere can complete a psc cycle through old SC
    // events and fences), which the per-variable version streams do not
    // track, so the per-thread step cache's locality assumption fails —
    // bypass it entirely for SC programs. Enumeration here is every
    // thread's candidates plus one sc_ok_after_push per memory candidate.
    enumerate_steps_uncached(c, opts, out);
    return;
  }
  out.clear();
  c11::Execution& ex = c.exec;
  ex.ensure_cache();
  // Pin the per-thread cache vectors to cover every program thread up
  // front: the references taken inside enumerate_thread_steps alias
  // vector elements, and a lazy grow for a not-yet-acting thread
  // mid-enumeration would invalidate them.
  ex.reserve_cache_threads(static_cast<c11::ThreadId>(c.thread_count()));
#ifndef NDEBUG
  const std::size_t pinned_threads = ex.cached_thread_count();
#endif

  StepCache& sc = c.step_cache;
  if (sc.entries.size() != c.thread_count()) {
    sc.entries.assign(c.thread_count(), StepCache::Entry{});
  }
  // Entries are keyed on the options they were built under: a different
  // loop bound changes which silent unfold steps exist.
  if (!sc.opts_seen || sc.loop_bound != opts.loop_bound) {
    sc.invalidate();
    sc.loop_bound = opts.loop_bound;
    sc.opts_seen = true;
  }

  StepEnumCounters& counters = step_enum_counters();
  bool changed = false;  // any slice recomputed or shifted?
  for (ThreadId t = 1; t <= c.thread_count(); ++t) {
    StepCache::Entry& en = sc.entries[t - 1];
    bool fresh = !en.valid;
    if (!fresh && en.memory) {
      // Lazy observability check: any push or pop of a write on the
      // peeked variable (or a full cache rebuild) advanced one of these
      // monotonic streams since the entry was minted.
      fresh = en.epoch != ex.cache_epoch() ||
              en.write_ver != ex.var_write_version(en.var) ||
              en.cover_ver != ex.var_cover_version(en.var);
    }
    const auto begin = static_cast<std::uint32_t>(out.size());
    if (fresh) {
      const ThreadEnumClass cls = enumerate_thread_steps(c, t, opts, out);
      en.memory = cls.memory;
      en.var = cls.var;
      en.epoch = ex.cache_epoch();
      en.write_ver = ex.var_write_version(cls.var);
      en.cover_ver = ex.var_cover_version(cls.var);
      en.valid = true;
      changed = true;
      ++counters.recomputed;
    } else {
      out.insert(out.end(), sc.steps.begin() + en.begin,
                 sc.steps.begin() + en.end);
      if (en.begin != begin) changed = true;  // slice moved
      ++counters.reused;
    }
    en.begin = begin;
    en.end = static_cast<std::uint32_t>(out.size());
  }
  // Retain the new concatenation as the cache's flat storage. Skipped when
  // every slice was reused at its old offset (the content is bit-identical
  // already — the common case along undo-heavy spines).
  if (changed) sc.steps.assign(out.begin(), out.end());
  assert(ex.cached_thread_count() == pinned_threads &&
         "per-thread cache vectors reallocated mid-enumeration");
}

namespace {

void ensure_saved(Config& c, StepUndo* undo, ThreadId u) {
  if (undo == nullptr) return;
  for (auto& snap : undo->saved) {
    if (snap.thread == u) return;
  }
  auto& snap = undo->saved.emplace_back();
  snap.thread = u;
  snap.cont = c.cont[u - 1];
  snap.regs = c.regs[u - 1];
}

/// Shared implementation; `undo == nullptr` skips all snapshotting (the
/// apply-only overload for callers that keep the result).
EventId apply_step_impl(Config& c, const Step& s, const StepOptions& opts,
                        StepUndo* undo) {
  const ThreadId t = s.thread;
  if (undo != nullptr) {
    undo->thread = t;
    undo->silent = s.silent;
    undo->loop_unfold = s.loop_unfold;
    undo->event = c11::kNoEvent;
    undo->saved.clear();
    undo->prev_tau_normal = c.tau_normal;
  }
  ensure_saved(c, undo, t);
  // Step-cache maintenance: the acting thread's continuation / registers /
  // unfold count change, so its cached enumeration is stale. Observability
  // effects on *other* threads are handled lazily by the per-variable
  // version counters push_event advances.
  c.step_cache.mark_dirty(t);
  c11::EventId event = c11::kNoEvent;
  // Exec undo token: the caller's, or a reusable scratch when discarded.
  thread_local c11::Execution::UndoToken scratch_tok;
  c11::Execution::UndoToken& tok = undo != nullptr ? undo->exec : scratch_tok;

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
    {
      obs::ScopedPhase push_phase(obs::Phase::kPushEvent);
      event = c.exec.push_event(t, s.action, s.observed, tok);
    }
  } else if (auto* wr = std::get_if<lang::WriteStep>(&*sv)) {
    c.cont[t - 1] = wr->next;
    {
      obs::ScopedPhase push_phase(obs::Phase::kPushEvent);
      event = c.exec.push_event(t, s.action, s.observed, tok);
    }
  } else if (auto* fe = std::get_if<lang::FenceStep>(&*sv)) {
    c.cont[t - 1] = fe->next;
    {
      obs::ScopedPhase push_phase(obs::Phase::kPushEvent);
      event = c.exec.push_event(t, s.action, c11::kNoEvent, tok);
    }
  } else {
    auto* up = std::get_if<lang::UpdateStep>(&*sv);
    assert(up != nullptr);
    c.cont[t - 1] = up->next;
    {
      obs::ScopedPhase push_phase(obs::Phase::kPushEvent);
      event = c.exec.push_event(t, s.action, s.observed, tok);
    }
    if (up->captures) {
      write_register(c.regs[t - 1], up->capture_reg, s.action.rdval());
    }
  }
  if (undo != nullptr) undo->event = event;

  if (opts.tau_compress) {
    // Same fixpoint as apply_tau_compression, computed thread-locally: a
    // thread's silent / register steps depend only on its own continuation
    // and registers, so each thread can be drained to exhaustion in one
    // pass (no global re-rounds). First-touch snapshots make the
    // compression undo exactly.
    //
    // When the config is already in tau-normal form only the acting thread
    // can have gained silent steps (the apply touched no other thread's
    // continuation or registers), so the drain is O(1) threads, not
    // O(thread_count) — the common case along every exploration spine.
    const auto drain = [&](ThreadId u) {
      while (true) {
        // Peek first: the loop's exit iteration (a memory step, a bounded
        // unfold, or termination) would otherwise pay a full step() — with
        // its continuation allocations — just to discard it.
        const lang::StepPeek pk = lang::peek_step(c.cont[u - 1],
                                                  c.regs[u - 1]);
        if (pk.loop_unfold || (pk.kind != lang::PeekKind::kSilent &&
                               pk.kind != lang::PeekKind::kRegWrite)) {
          break;
        }
        auto tv = lang::step(c.cont[u - 1], c.regs[u - 1]);
        assert(tv.has_value());
        if (auto* sil = std::get_if<lang::SilentStep>(&*tv)) {
          ensure_saved(c, undo, u);
          c.step_cache.mark_dirty(u);
          c.cont[u - 1] = sil->next;
        } else {
          auto* rw = std::get_if<lang::RegWriteStep>(&*tv);
          assert(rw != nullptr);
          ensure_saved(c, undo, u);
          c.step_cache.mark_dirty(u);
          write_register(c.regs[u - 1], rw->reg, rw->value);
          c.cont[u - 1] = rw->next;
        }
      }
    };
    if (c.tau_normal) {
      drain(t);
    } else {
      for (ThreadId u = 1; u <= c.thread_count(); ++u) drain(u);
      c.tau_normal = true;
    }
  } else {
    c.tau_normal = false;
  }
  return event;
}

}  // namespace

EventId apply_step(Config& c, const Step& s, const StepOptions& opts,
                   StepUndo& undo) {
  return apply_step_impl(c, s, opts, &undo);
}

EventId apply_step(Config& c, const Step& s, const StepOptions& opts) {
  return apply_step_impl(c, s, opts, nullptr);
}

void undo_step(Config& c, const StepUndo& undo) {
  // pop_event advances the popped write's per-variable version streams, so
  // other threads' observability-stale entries lazily fail validation;
  // only the threads whose local state is restored here need dirty bits.
  if (!undo.silent) c.exec.pop_event(undo.exec);
  if (undo.loop_unfold) --c.unfoldings[undo.thread - 1];
  c.step_cache.mark_dirty(undo.thread);
  for (const auto& snap : undo.saved) {
    c.step_cache.mark_dirty(snap.thread);
    c.cont[snap.thread - 1] = snap.cont;
    c.regs[snap.thread - 1] = snap.regs;
  }
  c.tau_normal = undo.prev_tau_normal;
}

CanonicalEventId canonical_event_id(const c11::Execution& exec, EventId e) {
  CanonicalEventId cid;
  cid.thread = exec.event(e).tid;
  // Events of one thread are appended in sb order, so the sb-position is
  // the count of same-thread events with a smaller tag.
  std::uint32_t rank = 0;
  for (EventId i = 0; i < e; ++i) {
    if (exec.event(i).tid == cid.thread) ++rank;
  }
  cid.index = rank;
  return cid;
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

EventId resolve_canonical_event(const c11::Execution& exec,
                                const CanonicalEventId& cid) {
  std::uint32_t rank = 0;
  for (EventId i = 0; i < exec.size(); ++i) {
    if (exec.event(i).tid != cid.thread) continue;
    if (rank == cid.index) return i;
    ++rank;
  }
  return c11::kNoEvent;
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
