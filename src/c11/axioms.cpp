#include "c11/axioms.hpp"

#include <cassert>
#include <sstream>
#include <vector>

namespace rc11::c11 {

std::string to_string(Axiom a) {
  switch (a) {
    case Axiom::kSbTotal:
      return "SbTotal";
    case Axiom::kMoValid:
      return "MoValid";
    case Axiom::kRfComplete:
      return "RfComplete";
    case Axiom::kNoThinAir:
      return "NoThinAir";
    case Axiom::kCoherence:
      return "Coherence";
    case Axiom::kSc:
      return "Sc";
  }
  return "?";
}

std::string ValidityReport::to_string() const {
  std::ostringstream os;
  for (std::size_t i = 0; i < violated.size(); ++i) {
    if (i > 0) os << ", ";
    os << c11::to_string(violated[i]);
  }
  return os.str();
}

bool check_sb_total(const Execution& ex) {
  const std::size_t n = ex.size();
  for (EventId a = 0; a < n; ++a) {
    for (EventId b = 0; b < n; ++b) {
      const Event& ea = ex.event(a);
      const Event& eb = ex.event(b);
      // (a,b) in sb => tid(a) = 0 or tid(a) = tid(b).
      if (ex.sb().contains(a, b) && ea.tid != kInitThread &&
          ea.tid != eb.tid) {
        return false;
      }
      // Initialising writes precede all non-initialising events.
      if (ea.tid == kInitThread && eb.tid != kInitThread &&
          !ex.sb().contains(a, b)) {
        return false;
      }
      // Distinct same-thread events are sb-ordered one way or the other.
      if (ea.tid != kInitThread && ea.tid == eb.tid && a != b &&
          !ex.sb().contains(a, b) && !ex.sb().contains(b, a)) {
        return false;
      }
      // Initialising writes are unordered amongst themselves, and nothing
      // precedes an initialising write.
      if (eb.tid == kInitThread && ex.sb().contains(a, b)) return false;
    }
  }
  // Strict order: irreflexive + transitive. Per-thread totality plus the
  // checks above make sb a strict order iff it is acyclic.
  return ex.sb().is_acyclic();
}

bool check_mo_valid(const Execution& ex) {
  const std::size_t n = ex.size();
  // mo relates only writes on the same variable.
  for (auto [a, b] : ex.mo().pairs()) {
    const Event& ea = ex.event(static_cast<EventId>(a));
    const Event& eb = ex.event(static_cast<EventId>(b));
    if (!ea.is_write() || !eb.is_write()) return false;
    if (ea.var() != eb.var()) return false;
  }
  (void)n;
  // Per variable: strict total order with the initialising write first.
  for (VarId x = 0; x < ex.var_count(); ++x) {
    const util::Bitset wx = ex.writes_on(x);
    if (wx.empty()) continue;
    if (!ex.mo().is_strict_total_order_on(wx)) return false;
    // Initialising write (if present) is mo-before every other write on x.
    for (std::size_t w = wx.first(); w < wx.size(); w = wx.next(w)) {
      if (!ex.event(static_cast<EventId>(w)).is_init()) continue;
      for (std::size_t v = wx.first(); v < wx.size(); v = wx.next(v)) {
        if (v == w) continue;
        if (!ex.mo().contains(w, v)) return false;
      }
    }
  }
  return true;
}

bool check_rf_complete(const Execution& ex) {
  const std::size_t n = ex.size();
  // Each read has exactly one incoming rf edge.
  std::vector<int> in_deg(n, 0);
  for (auto [w, r] : ex.rf().pairs()) {
    const Event& ew = ex.event(static_cast<EventId>(w));
    const Event& er = ex.event(static_cast<EventId>(r));
    if (!ew.is_write() || !er.is_read()) return false;
    if (ew.var() != er.var()) return false;
    if (ew.wrval() != er.rdval()) return false;
    ++in_deg[r];
  }
  for (EventId e = 0; e < n; ++e) {
    if (ex.event(e).is_read() && in_deg[e] != 1) return false;
  }
  return true;
}

bool check_no_thin_air(const Execution& ex) {
  util::Relation sbrf = ex.sb();
  sbrf |= ex.rf();
  return sbrf.is_acyclic();
}

bool check_coherence(const Execution& ex, const DerivedRelations& d) {
  (void)ex;
  // hb ; eco? irreflexive  <=>  eco?;hb irreflexive (cycle rotation);
  // we check hb;eco? directly as written in Definition 4.2.
  const util::Relation hb_ecoopt =
      d.hb.compose(d.eco.reflexive_closure());
  return hb_ecoopt.is_irreflexive() && d.eco.is_irreflexive();
}

bool check_sc(const Execution& ex, const DerivedRelations& d) {
  return compute_psc(ex, d).is_acyclic();
}

// --- Sc after one push ---------------------------------------------------------
//
// Why a search through the new event suffices. push_event appends one event
// e, here not a fence, and adds only edges into or out of e (Section 3.2):
//
//  * hb, eco and sb between older events never change;
//  * so scb between older events does not change either. Its sb, hb|loc, mo
//    and fr parts are unchanged, and its sb|!=loc;hb;sb|!=loc part cannot
//    pass through e, which has no sb or hb successor;
//  * so every new psc edge has one of two shapes. Either it touches e,
//    which requires e in E^sc (psc relates SC events only). Or it leaves an
//    SC fence a with a hb e: through left(a, e) = [F^sc];hb followed by a
//    new scb edge out of e, or through psc_f's a hb e eco z hb f. (right =
//    [E^sc] u hb?;[F^sc] gains only the pair (e, e), since e has no hb
//    successor, and no psc_f edge ends at e, since e is no fence);
//  * so every new psc cycle runs through a *source*: e if it is SC, or an
//    SC fence in hb^-1(e).
//
// Without e the state satisfies Sc, so psc is cyclic iff some source
// reaches itself. Without a source that is one masked column test on hb's
// maintained inverse, which covers every relaxed access of a program
// without SC fences. Otherwise a depth-first search from each source walks
// psc rows, each built on demand from hb rows and columns, eco rows (for an
// access u, (mo u fr)(u) = eco(u) n W) and a tag-order scan for sb: no
// closure, composition or pair loop.

namespace {

/// Per-thread state of a tag-order scan over the members of a set X.
struct ThreadScan {
  bool seen = false;    ///< a member of X precedes in this thread
  bool fence = false;   ///< one of those members is a fence
  bool access = false;  ///< one of them is an access, on `var`
  bool multi = false;   ///< they access two or more variables
  VarId var = 0;
};

/// Scratch for sc_ok_after_push, reused across calls.
struct PscScratch {
  util::Bitset sources, sc, fsc, x, y, a, h, z, t, tmp, visited, have_row;
  std::vector<util::Bitset> acc;   ///< accesses per variable
  std::vector<util::Bitset> rows;  ///< psc rows built so far, by event
  std::vector<ThreadScan> scan;
  std::vector<EventId> stack;
};

PscScratch& psc_scratch() {
  thread_local PscScratch s;
  return s;
}

void reset(util::Bitset& b, std::size_t n) {
  b.resize(n);
  b.clear();
}

/// Adds sb|!=loc(X) to `neq_out` and, unless null, sb(X) to `sb_out`, in
/// one pass over the events in tag order (tags increase along sb within a
/// thread). X holds no init write. A pair with a fence endpoint is never
/// same-location.
void add_sb_images(const Execution& ex, const util::Bitset& x,
                   util::Bitset* sb_out, util::Bitset& neq_out,
                   std::vector<ThreadScan>& scan) {
  scan.assign(static_cast<std::size_t>(ex.max_thread()) + 1, ThreadScan{});
  for (EventId c = 0; c < ex.size(); ++c) {
    const Event& ev = ex.event(c);
    if (ev.is_init()) continue;
    ThreadScan& s = scan[ev.tid];
    if (s.seen) {
      if (sb_out != nullptr) sb_out->set(c);
      // Without a fence member, `seen` implies `access`.
      if (ev.is_fence() || s.fence || s.multi || s.var != ev.var()) {
        neq_out.set(c);
      }
    }
    if (!x.test(c)) continue;
    s.seen = true;
    if (ev.is_fence()) {
      s.fence = true;
    } else if (!s.access) {
      s.access = true;
      s.var = ev.var();
    } else if (s.var != ev.var()) {
      s.multi = true;
    }
  }
}

/// psc(u) for an SC event u, into `row`:
///   psc_base(u) = right(scb(L)),  L = {u} u (hb(u) if u in F^sc)
///   psc_f(u)    = F^sc n (hb(u) u hb(eco(hb(u))))   (u in F^sc only)
/// where right(Y) = (Y n E^sc) u (F^sc n hb(Y)).
void psc_row(const Execution& ex, const util::Relation& hb,
             const util::Relation& eco, EventId u, PscScratch& s,
             util::Bitset& row) {
  const std::size_t n = ex.size();
  const bool fence = ex.event(u).is_fence();
  reset(s.x, n);
  s.x.set(u);
  if (fence) s.x |= hb.row(u);

  // Y = scb(L) = (sb u sb|!=loc;hb;sb|!=loc u hb|loc u mo u fr)(L).
  reset(s.y, n);
  reset(s.a, n);
  add_sb_images(ex, s.x, &s.y, s.a, s.scan);
  reset(s.h, n);
  s.a.for_each([&](std::size_t a) { s.h |= hb.row(a); });
  add_sb_images(ex, s.h, nullptr, s.y, s.scan);
  reset(s.z, n);  // eco(L); its writes are (mo u fr)(L)
  s.x.for_each([&](std::size_t x) {
    s.z |= eco.row(x);
    const Event& ev = ex.event(static_cast<EventId>(x));
    if (ev.is_fence()) return;
    s.tmp = hb.row(x);
    s.tmp &= s.acc[ev.var()];
    s.y |= s.tmp;
  });
  s.tmp = s.z;
  s.tmp &= ex.writes();
  s.y |= s.tmp;

  row = s.y;
  row &= s.sc;
  // An SC fence f is a target when hb^-1(f) meets Y (right), or, for a
  // fence u, contains u or meets eco(hb(u)) (psc_f).
  s.t = s.y;
  if (fence) {
    s.t |= s.z;
    s.t.set(u);
  }
  s.fsc.for_each([&](std::size_t f) {
    if (!hb.column_view(f).disjoint(s.t)) row.set(f);
  });
}

}  // namespace

bool sc_ok_after_push(Execution& ex) {
  assert(ex.size() > 0);
  const auto e = static_cast<EventId>(ex.size() - 1);
  const Event& ev = ex.event(e);
  assert(!ev.is_fence());
  const util::Relation& hb = ex.cached_hb();
  const util::Bitset& hb_in = hb.column_view(e);
  if (!ev.is_sc() && hb_in.disjoint(ex.fences())) return true;

  const std::size_t n = ex.size();
  PscScratch& s = psc_scratch();
  reset(s.sc, n);
  reset(s.fsc, n);
  for (EventId u = 0; u < n; ++u) {
    const Event& eu = ex.event(u);
    if (!eu.is_sc()) continue;
    s.sc.set(u);
    if (eu.is_fence()) s.fsc.set(u);
  }
  reset(s.sources, n);
  if (ev.is_sc()) s.sources.set(e);
  s.fsc.for_each([&](std::size_t f) {
    if (hb_in.test(f)) s.sources.set(f);
  });
  if (s.sources.empty()) return true;

  s.acc.resize(ex.var_count());
  for (util::Bitset& b : s.acc) reset(b, n);
  for (EventId u = 0; u < n; ++u) {
    const Event& eu = ex.event(u);
    if (!eu.is_fence()) s.acc[eu.var()].set(u);
  }
  const util::Relation& eco = ex.cached_eco();
  s.rows.resize(n);
  reset(s.have_row, n);
  const auto row_of = [&](EventId u) -> const util::Bitset& {
    if (!s.have_row.test(u)) {
      psc_row(ex, hb, eco, u, s, s.rows[u]);
      s.have_row.set(u);
    }
    return s.rows[u];
  };

  bool cyclic = false;
  s.sources.for_each([&](std::size_t src) {
    if (cyclic) return;
    reset(s.visited, n);
    s.stack.assign(1, static_cast<EventId>(src));
    while (!cyclic && !s.stack.empty()) {
      const EventId v = s.stack.back();
      s.stack.pop_back();
      const util::Bitset& r = row_of(v);
      if (r.test(src)) {
        cyclic = true;
        break;
      }
      r.for_each([&](std::size_t w) {
        if (s.visited.test(w)) return;
        s.visited.set(w);
        s.stack.push_back(static_cast<EventId>(w));
      });
    }
  });
  return !cyclic;
}

ValidityReport check_validity(const Execution& ex) {
  return check_validity(ex, compute_derived(ex));
}

ValidityReport check_validity(const Execution& ex,
                              const DerivedRelations& d) {
  ValidityReport report;
  if (!check_sb_total(ex)) report.violated.push_back(Axiom::kSbTotal);
  if (!check_mo_valid(ex)) report.violated.push_back(Axiom::kMoValid);
  if (!check_rf_complete(ex)) report.violated.push_back(Axiom::kRfComplete);
  if (!check_no_thin_air(ex)) report.violated.push_back(Axiom::kNoThinAir);
  if (!check_coherence(ex, d)) report.violated.push_back(Axiom::kCoherence);
  if (!check_sc(ex, d)) report.violated.push_back(Axiom::kSc);
  return report;
}

bool is_valid(const Execution& ex) { return check_validity(ex).valid(); }

}  // namespace rc11::c11
