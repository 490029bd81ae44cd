// Shared fixtures: executions from the paper's worked examples, and the
// full-enumeration oracles for races and final states.
#pragma once

#include <set>

#include "c11/execution.hpp"
#include "interp/config.hpp"
#include "lang/program.hpp"
#include "mc/checker.hpp"

namespace rc11::testing {

/// Handles to the events of the Example 3.2 execution.
struct Example32 {
  c11::Execution ex;
  c11::VarId x = 0, y = 1, z = 2;
  // Event tags.
  c11::EventId init_x, init_y, init_z;
  c11::EventId upd1_x;   ///< updRA_1(x, 2, 4)
  c11::EventId wr2_x;    ///< wrR_2(x, 2)
  c11::EventId wr2_y;    ///< wr_2(y, 1)
  c11::EventId rd3_x;    ///< rdA_3(x, 2)
  c11::EventId wr3_z;    ///< wr_3(z, 3)
  c11::EventId upd4_y;   ///< updRA_4(y, 0, 5)
  c11::EventId rd4_z;    ///< rd_4(z, 3)
};

/// Builds the C11 state of Example 3.2 (four threads, variables x, y, z):
///
///   init:     wr0(x,0)  wr0(y,0)  wr0(z,0)
///   thread 1: updRA(x,2,4)                (reads wrR_2(x,2))
///   thread 2: wrR(x,2) ; wr(y,1)
///   thread 3: rdA(x,2) ; wr(z,3)          (reads wrR_2(x,2))
///   thread 4: updRA(y,0,5) ; rd(z,3)      (reads wr0(y,0), wr3(z,3))
///
///   mo|x: wr0(x,0) < wrR2(x,2) < updRA1(x,2,4)
///   mo|y: wr0(y,0) < updRA4(y,0,5) < wr2(y,1)
///   mo|z: wr0(z,0) < wr3(z,3)
[[nodiscard]] Example32 make_example_32();

/// The race oracle: full exploration (no reduction) whose on_state runs
/// the from-scratch c11::find_race (every pair of events, hb through
/// compute_derived) at every reachable state. True iff some reachable
/// execution has a data race. Shares no race logic with mc::check_race_free,
/// which tests only each visited state's newest event.
[[nodiscard]] bool racy_by_oracle(const lang::Program& program,
                                  const interp::StepOptions& step = {});

/// Three test-and-set lock acquisitions with retry loops (rmw_tas_lock, a
/// litmus source): the looped member of test_dpor.cpp's RMW family, which
/// the drained-search tests search at several loop bounds too.
inline constexpr char kRmwTasLock[] = R"(litmus rmw_tas_lock
var l = 0
var c = 0
thread 1 { r := l.swap(1); while (r != 0) { r := l.swap(1); } c := 1; l :=R 0; }
thread 2 { r := l.swap(1); while (r != 0) { r := l.swap(1); } c := 2; l :=R 0; }
thread 3 { r := l.swap(1); while (r != 0) { r := l.swap(1); } c := 3; l :=R 0; }
exists (c == 1)
)";

/// What full enumeration finds at the terminated configurations.
struct Finals {
  std::set<mc::Outcome> outcomes;              ///< mc::outcome_of each
  std::set<util::Fingerprint> fingerprints;    ///< each execution's
  bool reachable = false;  ///< some final satisfies the condition given
  mc::ExploreStats stats;  ///< stats.truncated: the sets are partial
};

/// The final-state oracle: raw mc::explore under `options` (its loop bound
/// and state budget), with no reduction and no tau compression, so every
/// silent step is its own transition. The queries in mc/checker.hpp fuse
/// silent steps; this shares neither that granularity nor their visitors.
/// `cond`, when given, sets `reachable`.
[[nodiscard]] Finals finals_by_oracle(const lang::Program& program,
                                      const lang::CondPtr& cond = nullptr,
                                      mc::ExploreOptions options = {});

}  // namespace rc11::testing
