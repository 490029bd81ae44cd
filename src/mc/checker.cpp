#include "mc/checker.hpp"

#include <sstream>

namespace rc11::mc {

InvariantResult check_invariant(const lang::Program& program,
                                const ConfigPredicate& invariant,
                                ExploreOptions options) {
  options.step.tau_compress = false;  // intermediate pcs must be visible
  // DPOR preserves terminated states and race reports but may skip
  // intermediate global states, which an arbitrary invariant can observe;
  // downgrade to the state-preserving sleep-set reduction.
  if (is_dpor(options.por)) options.por = PorMode::kSleepSets;
  InvariantResult result;
  Visitor visitor;
  visitor.on_state = [&](const interp::Config& c) {
    if (!invariant(c)) {
      result.holds = false;
      return false;
    }
    return true;
  };
  ExploreResult er = explore(program, options, visitor);
  result.stats = er.stats;
  if (!result.holds) result.counterexample = std::move(er.abort_trace);
  return result;
}

ReachabilityResult check_reachable(const lang::Program& program,
                                   const lang::CondPtr& cond,
                                   ExploreOptions options) {
  ReachabilityResult result;
  Visitor visitor;
  visitor.on_final = [&](const interp::Config& c) {
    if (interp::eval_cond(cond, c)) {
      result.reachable = true;
      return false;  // stop at the first witness
    }
    return true;
  };
  ExploreResult er = explore(program, options, visitor);
  result.stats = er.stats;
  if (result.reachable) result.witness = std::move(er.abort_trace);
  return result;
}

std::string Outcome::to_string(const lang::Program& p) const {
  std::ostringstream os;
  bool sep = false;
  for (std::size_t t = 0; t < regs.size(); ++t) {
    for (std::size_t r = 0; r < regs[t].size(); ++r) {
      if (sep) os << " ";
      os << (t + 1) << ":" << p.reg_name(static_cast<lang::RegId>(r)) << "="
         << regs[t][r];
      sep = true;
    }
  }
  for (std::size_t v = 0; v < final_vars.size(); ++v) {
    if (sep) os << " ";
    os << p.vars().name(static_cast<c11::VarId>(v)) << "=" << final_vars[v];
    sep = true;
  }
  return os.str();
}

Outcome outcome_of(const interp::Config& c, const lang::Program& program) {
  Outcome o;
  o.regs.reserve(c.thread_count());
  for (const auto& file : c.regs) {
    auto padded = file;
    padded.resize(program.reg_count(), 0);
    o.regs.push_back(std::move(padded));
  }
  for (c11::VarId x = 0; x < c.exec.var_count(); ++x) {
    const c11::EventId w = c.exec.last(x);
    o.final_vars.push_back(w == c11::kNoEvent ? 0 : c.exec.event(w).wrval());
  }
  return o;
}

OutcomeResult enumerate_outcomes(const lang::Program& program,
                                 ExploreOptions options) {
  OutcomeResult result;
  Visitor visitor;
  visitor.on_final = [&](const interp::Config& c) {
    result.outcomes.insert(outcome_of(c, program));
    return true;
  };
  result.stats = explore(program, options, visitor).stats;
  return result;
}

std::optional<c11::DataRace> newest_event_race(const c11::Execution& ex) {
  if (ex.size() == 0) return std::nullopt;
  const auto e = static_cast<c11::EventId>(ex.size() - 1);
  // Init writes are sb-before every other event, so they never race.
  if (ex.event(e).is_init()) return std::nullopt;
  return c11::with_hb(ex, [&](const util::Relation& hb) {
    return c11::race_with(ex, hb, e);
  });
}

// Checking only each visited state's newest event finds a race whenever a
// visited state is racy. A step appends at most one event and adds edges
// into it only (Section 3.2), so hb between older events never changes.
// Take a visited racy state S with the fewest events, and among those the
// one first inserted into the seen set. Suppose S's newest event races
// nothing. Then S's race lies between events its parent P on the visiting
// path also has, with the same hb, so P is racy. P was visited, or merged
// into an isomorphic copy that was visited, and isomorphic states race
// alike. That copy or P precedes S: it has one event fewer if the step into
// S appended one, and was inserted earlier if the step was silent. Either
// way the choice of S is contradicted. The root cannot be S: it holds only
// init writes. Every engine visits a racy state when the program has a race
// (DPOR keeps one interleaving of every maximal execution, and races
// persist as events are added), so the verdict matches a check of every
// event against every other.
RaceResult check_race_free(const lang::Program& program,
                           ExploreOptions options) {
  RaceResult result;
  Visitor visitor;
  visitor.on_state = [&](const interp::Config& c) {
    if (auto race = newest_event_race(c.exec)) {
      result.race_free = false;
      result.race = race->to_string(c.exec, &program.vars());
      return false;
    }
    return true;
  };
  ExploreResult er = explore(program, options, visitor);
  result.stats = er.stats;
  if (!result.race_free) result.trace = std::move(er.abort_trace);
  return result;
}

std::set<util::Fingerprint> collect_final_executions(
    const lang::Program& program, ExploreOptions options) {
  std::set<util::Fingerprint> keys;
  Visitor visitor;
  visitor.on_final = [&](const interp::Config& c) {
    keys.insert(c.exec.fingerprint());
    return true;
  };
  (void)explore(program, options, visitor);
  return keys;
}

}  // namespace rc11::mc
