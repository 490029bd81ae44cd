#include "c11/derived.hpp"

namespace rc11::c11 {

util::Relation compute_sw(const Execution& ex) {
  // sw = ([W>=rel] u [F>=rel];sb) ; rf ; ([R>=acq] u sb;[F>=acq]) with both
  // rf endpoints atomic (release sequences dropped as in the base RAR
  // model). The edge runs from the release-side *event* — the releasing
  // write, or a release fence sb-before it — to the acquire-side event —
  // the acquiring read, or an acquire fence sb-after it. Same-thread tags
  // increase along sb, so "fence sb-before/after" is a tid + tag-order
  // test; fences never live in the init thread.
  const std::size_t n = ex.size();
  util::Relation sw(n);
  const util::Bitset& fences = ex.fences();

  if (fences.empty()) {
    // Fast path (RAR fragment): [release writes] ; rf ; [acquire reads] as
    // one masked row sweep over the acquire-side column mask.
    util::Bitset acq(n);
    for (EventId e = 0; e < static_cast<EventId>(n); ++e) {
      if (ex.event(e).is_acquire()) acq.set(e);
    }
    if (acq.empty()) return sw;
    for (EventId w = 0; w < static_cast<EventId>(n); ++w) {
      const util::Bitset& readers = ex.rf().row(w);
      if (readers.empty() || !ex.event(w).is_release()) continue;
      util::Bitset row = readers;
      row &= acq;
      if (!row.empty()) sw.add_to_row(w, row);
    }
    return sw;
  }

  // General path (fences present): walk rf pairs, expanding each into the
  // release-side sources x acquire-side targets it witnesses.
  for (EventId w = 0; w < static_cast<EventId>(n); ++w) {
    const util::Bitset& readers = ex.rf().row(w);
    if (readers.empty()) continue;
    const Event& ew = ex.event(w);
    if (ew.action.is_nonatomic()) continue;
    util::Bitset srcs(n);
    if (ew.is_release()) srcs.set(w);
    fences.for_each([&](std::size_t f) {
      if (f < w && ex.event(static_cast<EventId>(f)).tid == ew.tid &&
          ex.event(static_cast<EventId>(f)).action.is_release_fence()) {
        srcs.set(f);
      }
    });
    if (srcs.empty()) continue;
    readers.for_each([&](std::size_t r) {
      const Event& er = ex.event(static_cast<EventId>(r));
      if (er.action.is_nonatomic()) return;
      if (er.is_acquire()) {
        srcs.for_each([&](std::size_t src) { sw.add(src, r); });
      }
      fences.for_each([&](std::size_t f) {
        const Event& ef = ex.event(static_cast<EventId>(f));
        if (f > r && ef.tid == er.tid && ef.action.is_acquire_fence()) {
          srcs.for_each([&](std::size_t src) { sw.add(src, f); });
        }
      });
    });
  }
  return sw;
}

util::Relation compute_hb(const Execution& ex) {
  util::Relation base = ex.sb();
  base |= compute_sw(ex);
  return base.transitive_closure();
}

util::Relation compute_fr(const Execution& ex) {
  // fr = rf^{-1} ; mo as a predecessor join: mo's row of each write is
  // OR-ed into the rows of that write's readers directly, instead of
  // materializing rf^{-1} and composing.
  util::Relation fr = ex.rf().inverse_compose(ex.mo());
  fr.remove_identity();
  return fr;
}

util::Relation compute_eco(const Execution& ex) {
  util::Relation base = compute_fr(ex);
  base |= ex.mo();
  base |= ex.rf();
  return base.transitive_closure();
}

DerivedRelations compute_derived(const Execution& ex) {
  DerivedRelations d;
  d.sw = compute_sw(ex);

  util::Relation hb_base = ex.sb();
  hb_base |= d.sw;
  d.hb = hb_base.transitive_closure();

  d.fr = ex.rf().inverse_compose(ex.mo());
  d.fr.remove_identity();

  util::Relation eco_base = d.fr;
  eco_base |= ex.mo();
  eco_base |= ex.rf();
  d.eco = eco_base.transitive_closure();

  d.eco_opt_hb_opt =
      d.eco.reflexive_closure().compose(d.hb.reflexive_closure());
  return d;
}

util::Relation compute_psc(const Execution& ex, const DerivedRelations& d) {
  const std::size_t n = ex.size();
  util::Relation psc(n);
  util::Bitset sc(n);
  util::Bitset fsc(n);
  for (EventId e = 0; e < static_cast<EventId>(n); ++e) {
    const Action& a = ex.event(e).action;
    if (!a.is_sc()) continue;
    sc.set(e);
    if (a.is_fence()) fsc.set(e);
  }
  if (sc.empty()) return psc;

  // "Same location" applies to memory accesses only; any pair with a fence
  // endpoint counts as different-location.
  auto same_loc = [&](EventId a, EventId b) {
    const Event& ea = ex.event(a);
    const Event& eb = ex.event(b);
    return !ea.is_fence() && !eb.is_fence() && ea.var() == eb.var();
  };

  const util::Relation& sb = ex.sb();
  util::Relation sb_neq_loc(n);
  util::Relation hb_loc(n);
  for (EventId a = 0; a < static_cast<EventId>(n); ++a) {
    for (EventId b = 0; b < static_cast<EventId>(n); ++b) {
      if (sb.contains(a, b) && !same_loc(a, b)) sb_neq_loc.add(a, b);
      if (d.hb.contains(a, b) && same_loc(a, b)) hb_loc.add(a, b);
    }
  }

  util::Relation scb = sb;
  scb |= sb_neq_loc.compose(d.hb).compose(sb_neq_loc);
  scb |= hb_loc;
  scb |= ex.mo();
  scb |= d.fr;

  // left = [E^sc] u [F^sc];hb?   right = [E^sc] u hb?;[F^sc]
  util::Relation left(n);
  util::Relation right(n);
  sc.for_each([&](std::size_t e) {
    left.add(e, e);
    right.add(e, e);
  });
  fsc.for_each([&](std::size_t f) {
    left.add_to_row(f, d.hb.row(f));
    for (EventId e = 0; e < static_cast<EventId>(n); ++e) {
      if (d.hb.contains(e, f)) right.add(e, f);
    }
  });

  psc = left.compose(scb).compose(right);

  // psc_f = [F^sc] ; (hb u hb;eco;hb) ; [F^sc]
  util::Relation mid = d.hb;
  mid |= d.hb.compose(d.eco).compose(d.hb);
  fsc.for_each([&](std::size_t f) {
    util::Bitset row = mid.row(f);
    row &= fsc;
    psc.add_to_row(f, row);
  });
  return psc;
}

util::Relation eco_closed_form(const Execution& ex) {
  const util::Relation fr = compute_fr(ex);
  util::Relation out = ex.rf();
  out |= ex.mo();
  out |= fr;
  out |= ex.mo().compose(ex.rf());
  out |= fr.compose(ex.rf());
  return out;
}

}  // namespace rc11::c11
