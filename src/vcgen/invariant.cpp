#include "vcgen/invariant.hpp"

#include <utility>

namespace rc11::vcgen {

InvariantSuiteResult check_invariants(
    const lang::Program& program,
    const std::vector<NamedInvariant>& invariants,
    mc::ExploreOptions options) {
  // One predicate over the whole suite, so mc::check_invariant's option
  // handling (tau compression off, DPOR downgraded to sleep sets) applies.
  InvariantSuiteResult result;
  mc::InvariantResult r = mc::check_invariant(
      program,
      [&](const interp::Config& c) {
        for (const NamedInvariant& inv : invariants) {
          if (!inv.predicate(c)) {
            result.failed = inv.name;
            return false;
          }
        }
        return true;
      },
      std::move(options));
  result.all_hold = r.holds;
  result.counterexample = std::move(r.counterexample);
  result.stats = r.stats;
  return result;
}

RuleSoundnessResult check_rule_soundness(const lang::Program& program,
                                         mc::ExploreOptions options) {
  options.step.tau_compress = false;
  RuleSoundnessResult result;
  SweepResult sweep;
  mc::Visitor visitor;
  visitor.on_transition = [&](const interp::Config& pre,
                              const interp::ConfigStep& step) {
    if (step.silent) return true;
    ++result.transitions;
    const c11::DerivedRelations dpre = c11::compute_derived(pre.exec);
    const c11::DerivedRelations dpost = c11::compute_derived(step.next.exec);
    const TransitionCtx ctx{pre.exec, dpre,         step.next.exec,
                            dpost,    step.observed, step.event};
    sweep.merge(sweep_rules(ctx));
    // Keep exploring even if unsound instances were found; the caller wants
    // the full count.
    return true;
  };
  (void)mc::explore(program, options, visitor);
  result.applicable = sweep.applicable;
  result.unsound = sweep.unsound;
  result.first_unsound = sweep.first_unsound;
  return result;
}

}  // namespace rc11::vcgen
