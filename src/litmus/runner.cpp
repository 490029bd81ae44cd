#include "litmus/runner.hpp"

#include <iomanip>
#include <sstream>

namespace rc11::litmus {

const char* RunResult::observed() const {
  if (undecided()) return "unknown";
  return observed_reachable ? "allowed" : "forbidden";
}

std::string RunResult::to_string() const {
  std::ostringstream os;
  os << name << ": expected " << litmus::to_string(expected) << ", observed "
     << observed() << " -> " << (pass ? "PASS" : "FAIL");
  return os.str();
}

RunResult run_test(const Test& test, mc::ExploreOptions options) {
  const lang::ParsedLitmus parsed = lang::parse_litmus(test.source);

  RunResult result;
  result.name = test.name;
  result.expected = test.expected;

  const mc::ReachabilityResult reach =
      mc::check_reachable(parsed.program, parsed.condition, options);
  result.observed_reachable = reach.reachable;
  result.stats = reach.stats;
  // A search the budget cut short before reaching the condition has not
  // shown it unreachable: an undecided test never passes.
  result.pass = !result.undecided() &&
                reach.reachable == (test.expected == Expectation::kAllowed);

  const mc::OutcomeResult outcomes =
      mc::enumerate_outcomes(parsed.program, options);
  result.outcome_stats = outcomes.stats;
  result.distinct_outcomes = outcomes.outcomes.size();
  return result;
}

std::vector<RunResult> run_all(mc::ExploreOptions options) {
  std::vector<RunResult> out;
  out.reserve(catalog().size());
  for (const Test& t : catalog()) {
    out.push_back(run_test(t, options));
  }
  return out;
}

std::string format_table(const std::vector<RunResult>& results) {
  std::ostringstream os;
  os << std::left << std::setw(16) << "test" << std::setw(11) << "expected"
     << std::setw(11) << "observed" << std::setw(7) << "pass"
     << std::setw(10) << "states" << std::setw(10) << "outcomes" << "\n";
  for (const RunResult& r : results) {
    os << std::left << std::setw(16) << r.name << std::setw(11)
       << to_string(r.expected) << std::setw(11)
       << r.observed() << std::setw(7)
       << (r.pass ? "PASS" : "FAIL") << std::setw(10) << r.stats.states
       << std::setw(10) << r.distinct_outcomes << "\n";
  }
  return os.str();
}

}  // namespace rc11::litmus
