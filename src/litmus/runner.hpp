// Litmus test runner: model-checks a test's `exists` condition against the
// operational RA semantics and compares with the expectation.
#pragma once

#include <string>
#include <vector>

#include "litmus/catalog.hpp"
#include "mc/checker.hpp"

namespace rc11::litmus {

struct RunResult {
  std::string name;
  Expectation expected = Expectation::kAllowed;
  bool observed_reachable = false;
  bool pass = false;
  mc::ExploreStats stats;
  /// Stats of the full outcome enumeration (reachability may stop early on
  /// a witness; gates on counters like sleep_blocked need the full run).
  mc::ExploreStats outcome_stats;
  std::size_t distinct_outcomes = 0;  ///< distinct final observations

  /// The condition was not reached before the state budget cut the search
  /// short: the test is decided neither way, and it does not pass.
  [[nodiscard]] bool undecided() const {
    return !observed_reachable && stats.truncated;
  }

  /// "allowed", "forbidden" or, for an undecided test, "unknown".
  [[nodiscard]] const char* observed() const;

  [[nodiscard]] std::string to_string() const;
};

/// Runs one test (parsing its source), checking reachability of the
/// condition over all executions.
[[nodiscard]] RunResult run_test(const Test& test,
                                 mc::ExploreOptions options = {});

/// Runs the whole catalogue.
[[nodiscard]] std::vector<RunResult> run_all(mc::ExploreOptions options = {});

/// Formats results as an aligned table (one row per test).
[[nodiscard]] std::string format_table(const std::vector<RunResult>& results);

}  // namespace rc11::litmus
