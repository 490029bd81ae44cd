// The assertion language of the verification method (Section 5.1).
//
// Determinate-value assertion  x =_t v  (Definition 5.1): holds in sigma iff
//   (1) v = wrval(sigma.last(x)), and
//   (2) sigma.last(x) is in the happens-before cone of t:
//         hbc(t) = I_sigma u { e | exists e' of t. (e, e') in hb? }
// Condition (2) implies OW_sigma(t)|x = {sigma.last(x)} (condition (3)):
// thread t can only read the last write to x, so a read of x in t is as
// deterministic as an equation x = v in a sequentially consistent proof.
//
// Variable-ordering assertion  x -> y  (Definition 5.5): holds iff
//   (sigma.last(x), sigma.last(y)) in hb.
// It expresses that whoever synchronises on the last write to y will also
// have the last write to x in its past — the mechanism by which determinate
// values transfer between threads (rule Transfer).
#pragma once

#include "c11/derived.hpp"
#include "c11/execution.hpp"
#include "c11/observability.hpp"

namespace rc11::vcgen {

using c11::DerivedRelations;
using c11::EventId;
using c11::Execution;
using c11::ThreadId;
using c11::Value;
using c11::VarId;

/// The happens-before cone of thread t (Appendix B):
///   hbc(t) = I_sigma u { e | exists e' with tid(e') = t, (e,e') in hb? }.
/// Built in full; determinate_value tests one event's membership on its hb
/// row instead, and the tests compare the two.
[[nodiscard]] util::Bitset hb_cone(const Execution& ex,
                                   const DerivedRelations& d, ThreadId t);

/// Determinate-value assertion x =_t v, reading only hb: the one
/// push_event maintains (Execution::hb_if_cached, via c11::with_hb) or a
/// from-scratch snapshot. Condition (2) is a test on last(x) alone: it is
/// in hbc(t) iff it is an init write, an event of t, or its hb row meets
/// t's events — no cone is built.
[[nodiscard]] bool determinate_value(const Execution& ex,
                                     const util::Relation& hb, ThreadId t,
                                     VarId x, Value v);

/// Determinate-value assertion x =_t v on a from-scratch snapshot
/// (forwards d.hb).
[[nodiscard]] bool determinate_value(const Execution& ex,
                                     const DerivedRelations& d, ThreadId t,
                                     VarId x, Value v);

/// The value v such that x =_t v holds, if any.
[[nodiscard]] std::optional<Value> determinate_value_of(
    const Execution& ex, const DerivedRelations& d, ThreadId t, VarId x);

/// Condition (3) of Definition 5.1: OW_sigma(t)|x = { sigma.last(x) }.
/// Implied by determinate_value; exposed so tests can verify the
/// implication (Definition 5.1's "Formally" remark).
[[nodiscard]] bool observes_only_last(const Execution& ex,
                                      const DerivedRelations& d, ThreadId t,
                                      VarId x);

/// Variable-ordering assertion x -> y, reading only hb (maintained or
/// from scratch, as for determinate_value).
[[nodiscard]] bool var_order(const Execution& ex, const util::Relation& hb,
                             VarId x, VarId y);

/// Variable-ordering assertion x -> y on a from-scratch snapshot (forwards
/// d.hb).
[[nodiscard]] bool var_order(const Execution& ex, const DerivedRelations& d,
                             VarId x, VarId y);

// Convenience overloads computing the derived relations internally.
[[nodiscard]] bool determinate_value(const Execution& ex, ThreadId t, VarId x,
                                     Value v);
[[nodiscard]] bool var_order(const Execution& ex, VarId x, VarId y);

}  // namespace rc11::vcgen
