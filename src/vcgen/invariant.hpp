// Invariant-based verification over the operational semantics (Section 5).
//
// The paper proves invariants by induction over transitions; we discharge
// the same obligations by exhaustively enumerating reachable configurations
// (bounded by the loop bound) and checking every named invariant at every
// configuration — precisely the case analysis of Appendix D, performed by
// machine. check_rule_soundness additionally sweeps the Figure-4 rules
// over every reachable *transition* (the Appendix-B soundness lemmas).
#pragma once

#include <string>
#include <vector>

#include "mc/checker.hpp"
#include "vcgen/rules.hpp"

namespace rc11::vcgen {

struct NamedInvariant {
  std::string name;
  mc::ConfigPredicate predicate;
};

struct InvariantSuiteResult {
  bool all_hold = true;
  std::string failed;  ///< name of the first failing invariant
  mc::Trace counterexample;
  mc::ExploreStats stats;
};

/// Checks every invariant at every reachable configuration, through
/// mc::check_invariant: tau compression is off, and DPOR modes are
/// downgraded to sleep sets, since an invariant observes intermediate
/// states that DPOR may skip.
[[nodiscard]] InvariantSuiteResult check_invariants(
    const lang::Program& program, const std::vector<NamedInvariant>& invariants,
    mc::ExploreOptions options = {});

struct RuleSoundnessResult {
  std::size_t transitions = 0;  ///< non-silent transitions swept
  std::size_t applicable = 0;   ///< rule instances whose premises held
  std::size_t unsound = 0;      ///< instances whose conclusion failed
  std::string first_unsound;

  [[nodiscard]] bool sound() const { return unsound == 0; }
};

/// Sweeps all Figure-4 rules over every reachable RA transition of the
/// program (Appendix B, mechanised).
[[nodiscard]] RuleSoundnessResult check_rule_soundness(
    const lang::Program& program, mc::ExploreOptions options = {});

}  // namespace rc11::vcgen
