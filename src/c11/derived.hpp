// Derived relations of the RAR model (Section 3.1):
//
//   sw  = rf n (WrR x RdA)          synchronises-with (release-sequence-free,
//                                   matching the paper's c11_base_rar.cat)
//   hb  = (sb u sw)+                happens-before
//   fr  = (rf^-1 ; mo) \ Id         from-read ("reads-before")
//   eco = (fr u mo u rf)+           extended coherence order
//
// DerivedRelations bundles one consistent snapshot; observability and the
// validity axioms consume it. Computing it is the hot path of the model
// checker, so everything is bitset algebra.
#pragma once

#include "c11/execution.hpp"
#include "util/relation.hpp"

namespace rc11::c11 {

struct DerivedRelations {
  util::Relation sw;
  util::Relation hb;
  util::Relation fr;
  util::Relation eco;

  /// eco? ; hb? — the "extended causality past" used by encountered-writes
  /// (Section 3.2) and the Coherence axiom.
  util::Relation eco_opt_hb_opt;
};

/// synchronises-with: rf edges from a releasing write to an acquiring read.
[[nodiscard]] util::Relation compute_sw(const Execution& ex);

/// happens-before: (sb u sw)+.
[[nodiscard]] util::Relation compute_hb(const Execution& ex);

/// from-read: (rf^-1 ; mo) \ Id.
[[nodiscard]] util::Relation compute_fr(const Execution& ex);

/// extended coherence order: (fr u mo u rf)+.
[[nodiscard]] util::Relation compute_eco(const Execution& ex);

/// Computes all derived relations in one pass (sharing intermediates).
[[nodiscard]] DerivedRelations compute_derived(const Execution& ex);

/// Returns f(hb) for the hb that push_event maintains
/// (Execution::hb_if_cached), or, while that cache is invalid (before the
/// first cached query, after a raw mutation, under the pre-execution
/// semantics), for a from-scratch one. For observers that see only a const
/// Execution: explorer visitors, invariant predicates.
template <typename F>
auto with_hb(const Execution& ex, F&& f) {
  if (const util::Relation* hb = ex.hb_if_cached()) return f(*hb);
  return f(compute_derived(ex).hb);
}

/// RC11 partial-SC order psc = psc_base u psc_f over SC events/fences:
///   scb      = sb u sb|!=loc;hb;sb|!=loc u hb|loc u mo u fr
///   psc_base = ([E^sc] u [F^sc];hb?) ; scb ; ([E^sc] u hb?;[F^sc])
///   psc_f    = [F^sc] ; (hb u hb;eco;hb) ; [F^sc]
/// The Sc axiom (Lahav et al., RC11) requires psc to be acyclic. Empty
/// when the execution has no SC events.
[[nodiscard]] util::Relation compute_psc(const Execution& ex,
                                         const DerivedRelations& d);

/// The closed form of eco (Lemma C.9): under update atomicity,
///   eco = rf u mo u fr u (mo;rf) u (fr;rf).
/// Exposed so tests can confirm the lemma on enumerated executions.
[[nodiscard]] util::Relation eco_closed_form(const Execution& ex);

}  // namespace rc11::c11
