#include "c11/execution.hpp"

#include <algorithm>
#include <cassert>
#include <utility>

#include "c11/derived.hpp"
#include "c11/observability.hpp"
#include "util/hash.hpp"

namespace rc11::c11 {

Execution Execution::initial(
    const std::vector<std::pair<VarId, Value>>& init) {
  Execution ex;
  for (auto [var, val] : init) {
    ex.add_event(kInitThread, Action::wr(var, val));
  }
  return ex;
}

EventId Execution::append_event_core(ThreadId tid, const Action& a) {
  const auto e = static_cast<EventId>(events_.size());
  events_.push_back(Event{e, tid, a});

  const std::size_t n = events_.size();
  rf_.resize(n);
  mo_.resize(n);
  inits_.resize(n);
  writes_.resize(n);
  reads_.resize(n);
  updates_.resize(n);
  fences_.resize(n);

  // sb := sb u ({e' in D | tid(e') in {tid(e), 0}} x {e}) — structurally
  // determined by the event sequence, so the materialized relation is just
  // marked stale here instead of paying an O(n) edge scan per append (the
  // exploration hot path never reads it; see sb()).
  sb_stale_ = true;

  if (tid == kInitThread) inits_.set(e);
  if (a.is_write()) writes_.set(e);
  if (a.is_read()) reads_.set(e);
  if (a.is_update()) updates_.set(e);
  if (a.is_fence()) fences_.set(e);
  max_thread_ = std::max(max_thread_, tid);
  if (!a.is_fence()) {
    var_count_ = std::max(var_count_, static_cast<std::size_t>(a.var) + 1);
  }
  return e;
}

EventId Execution::add_event(ThreadId tid, const Action& a) {
  invalidate_cache();
  return append_event_core(tid, a);
}

void Execution::materialize_sb() const {
  const std::size_t n = events_.size();
  sb_ = util::Relation(n);
  for (EventId e = 0; e < n; ++e) {
    const ThreadId tid = events_[e].tid;
    if (tid == kInitThread) continue;
    for (EventId p = 0; p < e; ++p) {
      const ThreadId pt = events_[p].tid;
      if (pt == tid || pt == kInitThread) sb_.add(p, e);
    }
  }
  sb_stale_ = false;
}

void Execution::add_rf(EventId w, EventId r) {
  assert(events_[w].is_write() && events_[r].is_read());
  rf_.add(w, r);
  invalidate_cache();
}

void Execution::mo_insert_after(EventId w, EventId e) {
  assert(events_[w].is_write() && events_[e].is_write());
  // Column audit: mo_ keeps no maintained inverse (it would tax every
  // Config clone on the exploration hot path), and this builder runs only
  // on the cold axiomatic-construction side, so take the scan — but over
  // the write rows only, not Relation::column's all-rows universe scan.
  assert(!mo_.inverse_enabled());
  // mo+w = {w} u mo^-1[w]: w and everything mo-before it.
  util::Bitset before(events_.size());
  writes_.for_each([&](std::size_t p) {
    if (mo_.contains(p, w)) before.set(p);
  });
  before.set(w);
  // mo[w]: everything mo-after w (before inserting e).
  const util::Bitset after = mo_.row(w);
  before.for_each([&](std::size_t p) {
    mo_.add(static_cast<EventId>(p), e);
  });
  after.for_each([&](std::size_t s) {
    mo_.add(e, static_cast<EventId>(s));
  });
  invalidate_cache();
}

util::Bitset Execution::writes_on(VarId x) const {
  util::Bitset out(events_.size());
  writes_.for_each([&](std::size_t w) {
    if (events_[w].var() == x) out.set(w);
  });
  return out;
}

util::Bitset Execution::events_of(ThreadId t) const {
  util::Bitset out(events_.size());
  for (EventId e = 0; e < events_.size(); ++e) {
    if (events_[e].tid == t) out.set(e);
  }
  return out;
}

EventId Execution::last(VarId x) const {
  const util::Bitset wx = writes_on(x);
  for (std::size_t w = wx.first(); w < wx.size(); w = wx.next(w)) {
    if (mo_.row(w).disjoint(wx)) return static_cast<EventId>(w);
  }
  return kNoEvent;
}

EventId Execution::rf_source(EventId r) const {
  // Column audit: rf_ has no maintained inverse either; restrict the scan
  // to writes (only writes have rf successors) instead of every event.
  EventId found = kNoEvent;
  writes_.for_each([&](std::size_t w) {
    if (found == kNoEvent && rf_.contains(w, r)) {
      found = static_cast<EventId>(w);
    }
  });
  return found;
}

bool Execution::is_update_only(VarId x) const {
  bool found = false;
  writes_.for_each([&](std::size_t w) {
    if (events_[w].var() == x && !events_[w].is_update() &&
        !events_[w].is_init()) {
      found = true;
    }
  });
  return !found;
}

Execution Execution::restrict(const util::Bitset& keep) const {
  Execution out;
  std::vector<EventId> remap(events_.size(), kNoEvent);
  for (EventId e = 0; e < events_.size(); ++e) {
    if (!keep.test(e)) continue;
    const auto ne = static_cast<EventId>(out.events_.size());
    remap[e] = ne;
    out.events_.push_back(Event{ne, events_[e].tid, events_[e].action});
  }
  const std::size_t n = out.events_.size();
  out.sb_ = util::Relation(n);
  out.rf_ = util::Relation(n);
  out.mo_ = util::Relation(n);
  out.inits_ = util::Bitset(n);
  out.writes_ = util::Bitset(n);
  out.reads_ = util::Bitset(n);
  out.updates_ = util::Bitset(n);
  out.fences_ = util::Bitset(n);
  for (EventId e = 0; e < events_.size(); ++e) {
    if (remap[e] == kNoEvent) continue;
    const Event& ev = events_[e];
    if (ev.is_init()) out.inits_.set(remap[e]);
    if (ev.is_write()) out.writes_.set(remap[e]);
    if (ev.is_read()) out.reads_.set(remap[e]);
    if (ev.is_update()) out.updates_.set(remap[e]);
    if (ev.is_fence()) out.fences_.set(remap[e]);
    out.max_thread_ = std::max(out.max_thread_, ev.tid);
    if (!ev.is_fence()) {
      out.var_count_ =
          std::max(out.var_count_, static_cast<std::size_t>(ev.var()) + 1);
    }
  }
  auto restrict_relation = [&](const util::Relation& src,
                               util::Relation& dst) {
    for (auto [a, b] : src.pairs()) {
      if (remap[a] != kNoEvent && remap[b] != kNoEvent) {
        dst.add(remap[a], remap[b]);
      }
    }
  };
  restrict_relation(sb(), out.sb_);
  restrict_relation(rf_, out.rf_);
  restrict_relation(mo_, out.mo_);
  return out;
}

util::Bitset Execution::sbrf_prefix(const util::Bitset& seed) const {
  util::Relation sbrf = sb();
  sbrf |= rf_;
  const util::Relation pred = sbrf.inverse();
  util::Bitset closed = seed;
  closed |= inits_;
  bool changed = true;
  while (changed) {
    changed = false;
    closed.for_each([&](std::size_t e) {
      pred.row(e).for_each([&](std::size_t p) {
        if (!closed.test(p)) {
          closed.set(p);
          changed = true;
        }
      });
    });
  }
  return closed;
}

namespace {

/// Canonical order: sort event ids by (tid, tag). Within a thread, tags
/// increase along sb|t (events are appended), so this is (tid, sb-position).
/// Initialising writes (thread 0) are additionally sorted by variable so
/// their creation order does not matter.
std::vector<EventId> canonical_order(const std::vector<Event>& events) {
  const std::size_t n = events.size();
  std::vector<EventId> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = static_cast<EventId>(i);
  std::sort(order.begin(), order.end(), [&](EventId a, EventId b) {
    const Event& ea = events[a];
    const Event& eb = events[b];
    if (ea.tid != eb.tid) return ea.tid < eb.tid;
    if (ea.tid == kInitThread && ea.var() != eb.var()) {
      return ea.var() < eb.var();
    }
    return a < b;
  });
  return order;
}

/// Walks the canonical word sequence, emitting each word. Shared between
/// canonical_key() (materializes the vector) and fingerprint_into()
/// (streams into a hasher without allocating per-state storage).
template <typename Emit>
void canonical_words(const std::vector<Event>& events,
                     const util::Relation& sb, const util::Relation& rf,
                     const util::Relation& mo, Emit&& emit) {
  const std::size_t n = events.size();
  const std::vector<EventId> order = canonical_order(events);
  std::vector<EventId> pos(n);  // pos[tag] = canonical index
  for (std::size_t i = 0; i < n; ++i) pos[order[i]] = static_cast<EventId>(i);

  emit(n);
  for (EventId id : order) {
    const Event& e = events[id];
    emit((static_cast<std::uint64_t>(e.tid) << 8) |
         static_cast<std::uint64_t>(e.action.kind));
    emit((static_cast<std::uint64_t>(e.action.var) << 32) ^
         static_cast<std::uint64_t>(e.action.rval));
    emit(static_cast<std::uint64_t>(e.action.wval));
  }
  std::vector<std::uint64_t> cells;
  auto emit_relation = [&](const util::Relation& r) {
    cells.clear();
    for (auto [a, b] : r.pairs()) {
      cells.push_back((static_cast<std::uint64_t>(pos[a]) << 32) | pos[b]);
    }
    std::sort(cells.begin(), cells.end());
    emit(cells.size());
    for (std::uint64_t c : cells) emit(c);
  };
  emit_relation(sb);
  emit_relation(rf);
  emit_relation(mo);
}

}  // namespace

std::vector<std::uint64_t> Execution::canonical_key() const {
  std::vector<std::uint64_t> key;
  key.reserve(events_.size() * 3 + 8);
  canonical_words(events_, sb(), rf_, mo_,
                  [&](std::uint64_t w) { key.push_back(w); });
  return key;
}

std::size_t Execution::canonical_hash() const {
  std::size_t h = 0;
  for (std::uint64_t w : canonical_key()) {
    util::hash_combine(h, static_cast<std::size_t>(w));
  }
  return h;
}

// --- Incremental fingerprint ------------------------------------------------
//
// The fingerprint hashes the canonical form as a *set of facts* instead of
// a word sequence: one fact per event — keyed by its canonical id (thread,
// sb-position), which is invariant under reordering of independent steps —
// and one fact per rf/mo pair in canonical-id terms. Per-fact hashes are
// summed into two 64-bit lanes; addition commutes and is exactly
// invertible, so push_event adds the new facts' hashes and pop_event
// subtracts them, and the lanes never depend on append order. The canonical
// form determines the fact set exactly, so equal canonical forms give equal
// lanes, and distinct forms collide only with ~2^-128 probability.
//
// sb contributes no facts: it is structurally determined by the event set
// itself (initialising writes before every non-init event, same-thread
// events by sb-position — exactly the data the cids encode; see
// append_event_core), so hashing its pairs would spend one fact() per
// sb-predecessor per append without separating any canonical forms.

namespace {

constexpr std::uint64_t kEventTag = 1;
constexpr std::uint64_t kRfTag = 3;
constexpr std::uint64_t kMoTag = 4;

struct FactHash {
  std::uint64_t a = 0;
  std::uint64_t b = 0;
};

FactHash fact(std::uint64_t tag, std::uint64_t x, std::uint64_t y,
              std::uint64_t z = 0, std::uint64_t w = 0) {
  using util::mix64;
  std::uint64_t h = mix64(w + 0x9e3779b97f4a7c15ull);
  h = mix64(z + 0xbf58476d1ce4e5b9ull * h);
  h = mix64(y + 0x94d049bb133111ebull * h);
  h = mix64(x + 0x2545f4914f6cdd1dull * h);
  h = mix64(tag + 0xd6e8feb86659fd93ull * h);
  FactHash f;
  f.a = h;
  f.b = mix64(h + 0x8ebc6af09c88c6e3ull);
  return f;
}

FactHash event_fact(std::uint64_t cid, const Action& a) {
  return fact(kEventTag, cid,
              (static_cast<std::uint64_t>(a.kind) << 32) |
                  static_cast<std::uint64_t>(a.var),
              static_cast<std::uint64_t>(a.rval),
              static_cast<std::uint64_t>(a.wval));
}

/// Thread-local scratch sets so push_event allocates nothing once warm.
struct Scratch {
  util::Bitset before, after, readers, hbcol, rel, din, ecocol, ecorow,
      ecohb, new_ew, reach, reach_hb;
};

Scratch& scratch() {
  thread_local Scratch s;
  return s;
}

}  // namespace

std::vector<std::uint64_t> Execution::compute_cids() const {
  const std::size_t n = events_.size();
  std::vector<std::uint64_t> cid(n);
  std::vector<std::uint32_t> seq(static_cast<std::size_t>(max_thread_) + 1,
                                 0);
  std::vector<std::uint32_t> init_occ(var_count_, 0);
  for (std::size_t e = 0; e < n; ++e) {
    const Event& ev = events_[e];
    if (ev.tid == kInitThread) {
      // Initialising writes are canonically ordered by variable (their
      // creation order is irrelevant); disambiguate duplicates by
      // occurrence so the fact set stays injective in the canonical form.
      const std::uint32_t occ = init_occ[ev.var()]++;
      cid[e] = (static_cast<std::uint64_t>(ev.var()) << 8) | (occ & 0xffu);
    } else {
      cid[e] = (static_cast<std::uint64_t>(ev.tid) << 32) | seq[ev.tid]++;
    }
  }
  return cid;
}

void Execution::compute_fp_lanes(std::uint64_t& a, std::uint64_t& b) const {
  const std::vector<std::uint64_t> cid = compute_cids();
  std::uint64_t sa = 0;
  std::uint64_t sb = 0;
  for (std::size_t e = 0; e < events_.size(); ++e) {
    const FactHash f = event_fact(cid[e], events_[e].action);
    sa += f.a;
    sb += f.b;
  }
  const auto add_rel = [&](const util::Relation& r, std::uint64_t tag) {
    for (std::size_t x = 0; x < r.size(); ++x) {
      r.row(x).for_each([&](std::size_t y) {
        const FactHash f = fact(tag, cid[x], cid[y]);
        sa += f.a;
        sb += f.b;
      });
    }
  };
  add_rel(rf_, kRfTag);
  add_rel(mo_, kMoTag);
  a = sa;
  b = sb;
}

void Execution::fingerprint_into(util::FingerprintHasher& h) const {
  std::uint64_t a = 0;
  std::uint64_t b = 0;
  if (cache_.valid) {
    a = cache_.fp_a;
    b = cache_.fp_b;
  } else {
    compute_fp_lanes(a, b);
  }
  h.mix(events_.size());
  h.mix(a);
  h.mix(b);
}

util::Fingerprint Execution::fingerprint() const {
  util::FingerprintHasher h;
  fingerprint_into(h);
  return h.finish();
}

util::Fingerprint Execution::fingerprint_uncached() const {
  std::uint64_t a = 0;
  std::uint64_t b = 0;
  compute_fp_lanes(a, b);
  util::FingerprintHasher h;
  h.mix(events_.size());
  h.mix(a);
  h.mix(b);
  return h.finish();
}

// --- Incremental derived cache ----------------------------------------------

void Execution::ensure_cache() {
  if (cache_.valid) return;
  Cache& c = cache_;
  const std::size_t n = events_.size();
  const DerivedRelations d = compute_derived(*this);
  c.hb = d.hb;
  c.eco = d.eco;
  c.hb.enable_inverse();
  c.eco.enable_inverse();
  c.covered = covered_writes(*this);

  const std::size_t threads = static_cast<std::size_t>(max_thread_) + 1;
  c.thread_events.assign(threads, util::Bitset(n));
  for (EventId e = 0; e < n; ++e) c.thread_events[events_[e].tid].set(e);
  c.encountered.assign(threads, util::Bitset(n));
  for (ThreadId t = 0; t < threads; ++t) {
    c.encountered[t] = encountered_writes(*this, d, t);
  }
  c.var_writes.assign(var_count_, util::Bitset(n));
  writes_.for_each(
      [&](std::size_t w) { c.var_writes[events_[w].var()].set(w); });
  c.cid = compute_cids();
  compute_fp_lanes(c.fp_a, c.fp_b);
  c.valid = true;
  // A rebuild means some raw mutation bypassed push/pop: every step-cache
  // entry minted under the previous epoch is stale.
  ++cache_epoch_;
}

const util::Relation& Execution::cached_hb() {
  ensure_cache();
  return cache_.hb;
}

const util::Relation& Execution::cached_eco() {
  ensure_cache();
  return cache_.eco;
}

const util::Bitset& Execution::cached_covered() {
  ensure_cache();
  return cache_.covered;
}

const util::Bitset& Execution::cached_encountered(ThreadId t) {
  ensure_cache();
  if (t >= cache_.encountered.size()) {
    // A thread that has not acted yet: EW is empty (Section 3.2).
    cache_.encountered.resize(t + 1, util::Bitset(events_.size()));
    cache_.thread_events.resize(t + 1, util::Bitset(events_.size()));
  }
  return cache_.encountered[t];
}

const util::Bitset& Execution::cached_thread_events(ThreadId t) {
  ensure_cache();
  if (t >= cache_.thread_events.size()) {
    cache_.encountered.resize(t + 1, util::Bitset(events_.size()));
    cache_.thread_events.resize(t + 1, util::Bitset(events_.size()));
  }
  return cache_.thread_events[t];
}

const util::Bitset& Execution::cached_var_writes(VarId x) {
  ensure_cache();
  if (x >= cache_.var_writes.size()) {
    cache_.var_writes.resize(x + 1, util::Bitset(events_.size()));
  }
  return cache_.var_writes[x];
}

void Execution::reserve_cache_threads(ThreadId count) {
  ensure_cache();
  const std::size_t want = static_cast<std::size_t>(count) + 1;
  if (cache_.encountered.size() < want) {
    cache_.encountered.resize(want, util::Bitset(events_.size()));
    cache_.thread_events.resize(want, util::Bitset(events_.size()));
  }
}

EventId Execution::push_event(ThreadId tid, const Action& a, EventId w,
                              UndoToken& tok) {
  assert(tid != kInitThread);
  ensure_cache();
  Cache& c = cache_;
  Scratch& s = scratch();
  const std::size_t n_old = events_.size();
  const std::size_t n = n_old + 1;
  // tid's latest event: the sb side of e's hb column (below).
  const std::size_t latest =
      tid < c.thread_events.size() ? c.thread_events[tid].last() : n_old;
  const EventId last =
      latest < n_old ? static_cast<EventId>(latest) : kNoEvent;

  tok.tid = tid;
  tok.observed = w;
  tok.prev_max_thread = max_thread_;
  tok.prev_var_count = static_cast<std::uint32_t>(var_count_);
  tok.prev_thread_vec = static_cast<std::uint32_t>(c.thread_events.size());
  tok.covered_added = false;
  tok.fp_delta_a = 0;
  tok.fp_delta_b = 0;

  const bool is_rd = a.is_read();
  const bool is_wr = a.is_write();
  const bool is_fence = a.is_fence();
  const VarId x = a.var;
  bump_var_versions(a);

  // --- Snapshots over the old universe (pre-append) -----------------------
  if (is_fence) {
    // Fences observe nothing: no mo neighbourhood, no rf edge.
    assert(w == kNoEvent);
    s.after.resize(n_old);
    s.after.clear();
  } else {
    assert(w < n_old && events_[w].is_write() && events_[w].var() == x);
    s.after = mo_.row(w);  // mo[w] — also the fr successors of a read of w
  }
  s.before.resize(n_old);
  s.before.clear();
  s.readers.resize(n_old);
  s.readers.clear();
  if (is_wr) {
    // mo+w = {w} u mo^-1[w]; mo is per-variable, so scan only x's writes
    // (audited column scan: bounded by |writes of x|, not the universe —
    // cheaper than maintaining a full inverse mirror on mo).
    if (x < c.var_writes.size()) {
      c.var_writes[x].for_each([&](std::size_t p) {
        if (mo_.contains(p, w)) s.before.set(p);
      });
    }
    s.before.set(w);
    // New fr in-edges: every read of a write mo-before e reads-before e.
    s.before.for_each([&](std::size_t p) { s.readers |= rf_.row(p); });
  }

  // Canonical id: position of e within its thread, one past its latest.
  const std::uint64_t seq =
      last == kNoEvent ? 0 : (c.cid[last] & 0xffffffffull) + 1;
  const std::uint64_t cid_e = (static_cast<std::uint64_t>(tid) << 32) | seq;

  // --- Core append + primitive edges --------------------------------------
  const EventId e = append_event_core(tid, a);

  std::uint64_t da = 0;
  std::uint64_t db = 0;
  const auto add_fact = [&](const FactHash& f) {
    da += f.a;
    db += f.b;
  };
  add_fact(event_fact(cid_e, a));
  if (is_rd) {
    rf_.add(w, e);
    add_fact(fact(kRfTag, c.cid[w], cid_e));
  }
  if (is_wr) {
    s.before.for_each([&](std::size_t p) {
      mo_.add(static_cast<EventId>(p), e);
      add_fact(fact(kMoTag, c.cid[p], cid_e));
    });
    s.after.for_each([&](std::size_t q) {
      mo_.add(e, static_cast<EventId>(q));
      add_fact(fact(kMoTag, cid_e, c.cid[q]));
    });
  }
  c.cid.push_back(cid_e);
  c.fp_a += da;
  c.fp_b += db;
  tok.fp_delta_a = da;
  tok.fp_delta_b = db;

  // --- Resize the cached state to the new universe -------------------------
  c.hb.resize(n);
  c.eco.resize(n);
  const std::size_t threads = static_cast<std::size_t>(max_thread_) + 1;
  if (c.thread_events.size() < threads) {
    c.thread_events.resize(threads, util::Bitset(n_old));
    c.encountered.resize(threads, util::Bitset(n_old));
  }
  for (auto& b : c.thread_events) b.resize(n);
  for (auto& b : c.encountered) b.resize(n);
  if (c.var_writes.size() < var_count_) {
    c.var_writes.resize(var_count_, util::Bitset(n_old));
  }
  for (auto& b : c.var_writes) b.resize(n);
  c.covered.resize(n);
  s.before.resize(n);
  s.after.resize(n);
  s.readers.resize(n);

  c.thread_events[tid].set(e);
  if (is_wr) c.var_writes[x].set(e);
  if (a.is_update()) {
    assert(!c.covered.test(w));
    c.covered.set(w);
    tok.covered_added = true;
  }

  // --- hb: every new edge points into e, so only e's column grows ----------
  //
  // The sb side is the thread's latest event and its hb column: hb
  // contains sb and is transitive, so every earlier sb-predecessor of e
  // (initialising writes included) is already hb-before it. A thread's
  // first event has only the initialising writes before it in sb, and
  // they have no hb predecessors (no sb into them, and no sw: they are
  // neither acquire reads nor fences).
  //
  // Fence-mediated sw keeps the invariant: an sw edge's target is always
  // the acquiring read (pushed after its rf source) or an acquire fence
  // (pushed after the reads it covers), so every new sw edge points into e
  // here too. Release-side sources of a write w' are w' itself (when
  // releasing) and every release fence sb-before w' (same thread, earlier
  // tag); their hb columns are frozen once pushed, so gathering them now is
  // order-independent. They go to `rel`, kept apart for the EW step below.
  s.hbcol.resize(n);
  s.hbcol.clear();
  if (last != kNoEvent) {
    s.hbcol.set(last);
    s.hbcol |= c.hb.column_view(last);
  } else {
    s.hbcol |= c.thread_events[kInitThread];
  }
  s.rel.resize(n);
  s.rel.clear();
  const auto gather_release_side = [&](EventId wsrc) {
    const Event& ws = events_[wsrc];
    if (ws.action.is_nonatomic()) return;  // NA accesses never synchronise
    if (ws.is_release()) {
      s.rel.set(wsrc);
      s.rel |= c.hb.column_view(wsrc);
    }
    fences_.for_each([&](std::size_t f) {
      if (f < wsrc && events_[f].tid == ws.tid &&
          events_[f].action.is_release_fence()) {
        s.rel.set(f);
        s.rel |= c.hb.column_view(f);
      }
    });
  };
  if (is_rd && !a.is_nonatomic() && a.is_acquire()) {
    gather_release_side(w);
  }
  if (is_fence && a.is_acquire_fence()) {
    // sw edges into the new acquire fence from the release side of every
    // atomic read sb-before it in its thread.
    c.thread_events[tid].for_each([&](std::size_t r) {
      const Event& er = events_[r];
      if (!er.is_read() || er.action.is_nonatomic()) return;
      const EventId wsrc = rf_source(static_cast<EventId>(r));
      if (wsrc != kNoEvent) gather_release_side(wsrc);
    });
  }
  // What the release side adds beyond the sb side.
  s.rel.subtract(s.hbcol);
  s.hbcol |= s.rel;
  c.hb.add_to_column(e, s.hbcol);

  // --- eco: direct in-edges D_in and out-edges D_out of e ------------------
  //
  // Appending never creates an eco pair between two old events (every new
  // primitive edge is incident to e, and any old-old path through e is
  // already covered by mo transitivity — see tests/test_incremental.cpp for
  // the differential assertion), so only e's row and column are filled.
  s.din.resize(n);
  s.din.clear();
  if (is_wr) {
    s.din |= s.before;
    s.din |= s.readers;
  } else if (is_rd) {
    s.din.set(w);
  }
  // Fences have no eco edges: D_in and mo[w] stay empty.
  s.ecocol.resize(n);
  s.ecocol.clear();
  s.din.for_each([&](std::size_t d) {
    s.ecocol.set(d);
    s.ecocol |= c.eco.column_view(d);
  });
  s.ecorow.resize(n);
  s.ecorow.clear();
  s.after.for_each([&](std::size_t d) {
    s.ecorow.set(d);
    s.ecorow |= c.eco.row(d);
  });
  c.eco.add_to_column(e, s.ecocol);
  c.eco.add_to_row(e, s.ecorow);

  // --- Encountered writes --------------------------------------------------
  // EW(tid) gains every write w' with (w', e) in eco?;hb?: the midpoint m
  // is e itself or an hb-predecessor of e. A midpoint on the sb side is
  // hb?-before tid's latest event, so its writes are in EW(tid) already;
  // only e and the release side can add any. Without a latest event EW(tid)
  // is empty and every midpoint counts.
  s.ecohb = s.ecocol;
  s.ecohb.set(e);
  const auto add_midpoint = [&](std::size_t m) {
    s.ecohb.set(m);
    s.ecohb |= c.eco.column_view(m);
  };
  if (last != kNoEvent) {
    s.rel.for_each(add_midpoint);
  } else {
    s.hbcol.for_each(add_midpoint);
  }
  s.new_ew = s.ecohb;
  s.new_ew &= writes_;
  tok.ew_delta = s.new_ew;
  tok.ew_delta.subtract(c.encountered[tid]);
  c.encountered[tid] |= tok.ew_delta;

  // A new *write* e may itself be already-encountered by another thread t:
  // (e, e'') in eco?;hb? for some event e'' of t (e inserted into the
  // middle of mo behind a write t has observed).
  if (is_wr) {
    s.reach = c.eco.row(e);
    s.reach.set(e);
    s.reach_hb = s.reach;
    s.reach.for_each([&](std::size_t m) { s.reach_hb |= c.hb.row(m); });
    for (ThreadId t = 1; t <= max_thread_; ++t) {
      if (t == tid) continue;
      if (!s.reach_hb.disjoint(c.thread_events[t])) c.encountered[t].set(e);
    }
  }

  tok.event = e;
  return e;
}

void Execution::pop_event(const UndoToken& tok) {
  assert(cache_.valid);
  Cache& c = cache_;
  const std::size_t n = events_.size();
  assert(n > 0 && tok.event == n - 1);
  const std::size_t n_new = n - 1;
  const EventId e = tok.event;
  const Action a = events_[e].action;

  bump_var_versions(a);
  c.fp_a -= tok.fp_delta_a;
  c.fp_b -= tok.fp_delta_b;
  if (tok.covered_added) c.covered.reset(tok.observed);
  c.encountered[tok.tid].subtract(tok.ew_delta);

  // rf and mo keep no inverse, so remove e's in-pairs here from what the
  // push recorded: its rf source and its mo predecessors among x's writes.
  // The shrink below then clears only e's own row.
  if (a.is_read()) rf_.remove(tok.observed, e);
  if (a.is_write()) {
    c.var_writes[a.var].for_each(
        [&](std::size_t p) { mo_.remove(static_cast<EventId>(p), e); });
  }

  events_.pop_back();
  sb_stale_ = true;
  rf_.resize(n_new);
  mo_.resize(n_new);
  inits_.resize(n_new);
  writes_.resize(n_new);
  reads_.resize(n_new);
  updates_.resize(n_new);
  fences_.resize(n_new);

  c.hb.resize(n_new);
  c.eco.resize(n_new);
  c.thread_events.resize(tok.prev_thread_vec);
  c.encountered.resize(tok.prev_thread_vec);
  for (auto& b : c.thread_events) b.resize(n_new);
  for (auto& b : c.encountered) b.resize(n_new);
  c.var_writes.resize(tok.prev_var_count);
  for (auto& b : c.var_writes) b.resize(n_new);
  c.covered.resize(n_new);
  c.cid.pop_back();

  max_thread_ = tok.prev_max_thread;
  var_count_ = tok.prev_var_count;
}

}  // namespace rc11::c11
