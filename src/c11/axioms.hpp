// The axiomatic RAR model (Definition 4.2).
//
// A C11 execution ((D, sb), rf, mo) is *valid* iff all of:
//   SbTotal     sb is total per non-initialising thread and orders all
//               initialising writes before all other events
//   MoValid     mo is a disjoint union of strict total orders, one per
//               variable, with initialising writes mo-first
//   RfComplete  every read reads-from exactly one var/value-matching write
//   NoThinAir   sb u rf is acyclic
//   Coherence   hb;eco? and eco are irreflexive
//
// Theorem 4.4 (soundness) states every state reachable via the Figure-3
// rules is valid; test_soundness checks this exhaustively on enumerated
// state spaces.
#pragma once

#include <string>
#include <vector>

#include "c11/derived.hpp"
#include "c11/execution.hpp"

namespace rc11::c11 {

enum class Axiom : std::uint8_t {
  kSbTotal,
  kMoValid,
  kRfComplete,
  kNoThinAir,
  kCoherence,
  kSc,
};

std::string to_string(Axiom a);

/// Outcome of checking an execution against Definition 4.2.
struct ValidityReport {
  std::vector<Axiom> violated;

  [[nodiscard]] bool valid() const { return violated.empty(); }

  /// Human-readable list of violated axioms ("" when valid).
  [[nodiscard]] std::string to_string() const;
};

[[nodiscard]] bool check_sb_total(const Execution& ex);
[[nodiscard]] bool check_mo_valid(const Execution& ex);
[[nodiscard]] bool check_rf_complete(const Execution& ex);
[[nodiscard]] bool check_no_thin_air(const Execution& ex);
[[nodiscard]] bool check_coherence(const Execution& ex,
                                   const DerivedRelations& d);

/// Sc: psc is acyclic (RC11). Trivially true without SC events, so the
/// RAR fragment is unaffected.
[[nodiscard]] bool check_sc(const Execution& ex, const DerivedRelations& d);

/// Sc after one push_event, searching only for a psc cycle through the
/// newest event e (not a fence). Precondition: the execution without e
/// satisfies Sc, as every state reached through Sc-filtered steps does.
/// Reads the hb and eco that push_event maintains and builds no closure:
/// without an SC source (e itself, or an SC fence hb-before e) it is one
/// masked column test; otherwise a search over psc rows built on demand.
/// Agrees with check_sc(ex, compute_derived(ex)) under the precondition.
[[nodiscard]] bool sc_ok_after_push(Execution& ex);

/// Checks all six axioms.
[[nodiscard]] ValidityReport check_validity(const Execution& ex);
[[nodiscard]] ValidityReport check_validity(const Execution& ex,
                                            const DerivedRelations& d);

/// Shorthand for check_validity(ex).valid().
[[nodiscard]] bool is_valid(const Execution& ex);

}  // namespace rc11::c11
