// Non-atomic accesses and data-race detection.
//
// The paper's language makes every access atomic (relaxed or stronger)
// and notes (Section 2.1) that it is "straightforward to extend the
// semantics to incorporate non-atomic accesses (which potentially
// generate undefined behaviour)". This module is that extension, and it
// follows the definition the paper's own Memalloy appendix uses
// (c11_base_rar.cat):
//
//   cnf = (((W x M) u (M x W)) n loc) \ id      conflicting accesses
//   dr  = (cnf \ (A x A)) \ thd \ (hb u hb^-1)  data races
//
// i.e. two same-variable accesses, at least one a write, not both
// atomic, on different threads, unordered by happens-before.
//
// Model choice (documented in DESIGN.md): non-atomic accesses behave
// like relaxed accesses at the rf/mo level — they must still read from
// some observable write — and, additionally, any reachable execution
// containing a race renders the program undefined ("catch-fire"). The
// model checker (mc::check_race_free) reports the first race with a
// trace.
#pragma once

#include <optional>
#include <string>

#include "c11/derived.hpp"
#include "c11/execution.hpp"

namespace rc11::c11 {

/// A detected data race: the two unordered conflicting events.
struct DataRace {
  EventId first = kNoEvent;
  EventId second = kNoEvent;

  [[nodiscard]] std::string to_string(const Execution& ex,
                                      const VarTable* vars = nullptr) const;
};

/// True iff a and b conflict: same variable, at least one write, distinct.
/// Fences access no variable, so they conflict with nothing.
[[nodiscard]] bool conflicting(const Execution& ex, EventId a, EventId b);

/// Finds a data race in the execution, if any (lowest tag pair first).
[[nodiscard]] std::optional<DataRace> find_race(const Execution& ex,
                                                const DerivedRelations& d);

/// Convenience overload recomputing the derived relations.
[[nodiscard]] std::optional<DataRace> find_race(const Execution& ex);

/// Does event `e` race with any other event, given happens-before `hb`?
/// The model checker (mc::check_race_free) calls it on the newest event of
/// every visited state, passing the hb that push_event maintains
/// (Execution::hb_if_cached): each step appends one event and adds only hb
/// edges into it, so a race is completed by its later event and never
/// appears between two older ones.
[[nodiscard]] std::optional<DataRace> race_with(const Execution& ex,
                                                const util::Relation& hb,
                                                EventId e);

/// As above, reading hb from a from-scratch snapshot.
[[nodiscard]] std::optional<DataRace> race_with(const Execution& ex,
                                                const DerivedRelations& d,
                                                EventId e);

}  // namespace rc11::c11
