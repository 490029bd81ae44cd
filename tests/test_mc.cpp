// Tests for the model checker: exploration, dedup, invariants,
// reachability, outcome enumeration, traces, truncation, and the parallel
// explorer's agreement with the sequential one.
#include <gtest/gtest.h>

#include "helpers.hpp"
#include "lang/builder.hpp"
#include "lang/parser.hpp"
#include "mc/checker.hpp"
#include "mc/parallel.hpp"

namespace rc11::mc {
namespace {

using lang::assign;
using lang::constant;
using lang::ProgramBuilder;
using lang::reg_assign;

lang::Program two_writers() {
  ProgramBuilder b;
  auto x = b.var("x", 0);
  b.thread({assign(x, 1)});
  b.thread({assign(x, 2)});
  return std::move(b).build();
}

TEST(Explorer, VisitsAllStatesOfTwoWriters) {
  ExploreResult r = explore(two_writers(), {}, {});
  // States: init, two one-write states, two final mo-orders = 5 (dedup
  // merges nothing here since all states differ).
  EXPECT_EQ(r.stats.states, 5u);
  EXPECT_EQ(r.stats.finals, 2u);
  EXPECT_FALSE(r.aborted);
}

TEST(Explorer, DedupMergesCommutingSteps) {
  ProgramBuilder b;
  auto x = b.var("x", 0);
  auto y = b.var("y", 0);
  b.thread({assign(x, 1)});
  b.thread({assign(y, 1)});
  const lang::Program p = std::move(b).build();
  ExploreResult r = explore(p, {}, {});
  // Diamond: init, two middles, ONE final (merged).
  EXPECT_EQ(r.stats.states, 4u);
  EXPECT_EQ(r.stats.merged, 1u);
  EXPECT_EQ(r.stats.finals, 1u);

  ExploreOptions no_dedup;
  no_dedup.dedup = false;
  ExploreResult r2 = explore(p, no_dedup, {});
  EXPECT_EQ(r2.stats.states, 5u);  // final counted twice
}

TEST(Explorer, OnStateAbortStopsSearch) {
  Visitor v;
  std::size_t seen = 0;
  v.on_state = [&](const interp::Config&) { return ++seen < 2; };
  ExploreResult r = explore(two_writers(), {}, v);
  EXPECT_TRUE(r.aborted);
  EXPECT_EQ(seen, 2u);
  EXPECT_FALSE(r.abort_trace.empty());
}

TEST(Explorer, MaxStatesTruncates) {
  ExploreOptions opts;
  opts.max_states = 2;
  ExploreResult r = explore(two_writers(), opts, {});
  EXPECT_TRUE(r.stats.truncated);
}

TEST(Explorer, OnTransitionSeesEveryEdge) {
  std::size_t transitions = 0;
  Visitor v;
  v.on_transition = [&](const interp::Config&, const interp::ConfigStep&) {
    ++transitions;
    return true;
  };
  ExploreResult r = explore(two_writers(), {}, v);
  EXPECT_EQ(transitions, r.stats.transitions);
  EXPECT_GE(transitions, 4u);
}

TEST(Explorer, PorModeNamesRoundTripAndRetiredNamesAreRejected) {
  // The CLI's --por values: exactly the three modes, each name mapping
  // back to its mode.
  for (const PorMode m :
       {PorMode::kNone, PorMode::kSleepSets, PorMode::kSourceSetsSleep}) {
    EXPECT_EQ(por_mode_from_name(por_mode_name(m)), m) << por_mode_name(m);
  }
  EXPECT_STREQ(por_mode_name(PorMode::kNone), "none");
  EXPECT_STREQ(por_mode_name(PorMode::kSleepSets), "sleep");
  EXPECT_STREQ(por_mode_name(kDefaultPor), "source-sleep");
  for (const char* retired : {"source", "optimal", "optimal-parsimonious"}) {
    EXPECT_FALSE(por_mode_from_name(retired).has_value()) << retired;
  }
}

TEST(Checker, InvariantHoldsTrivially) {
  const InvariantResult r = check_invariant(
      two_writers(), [](const interp::Config&) { return true; });
  EXPECT_TRUE(r.holds);
  EXPECT_TRUE(r.counterexample.empty());
}

TEST(Checker, InvariantViolationYieldsTrace) {
  // "x never ends with 2" is violated.
  ProgramBuilder b;
  auto x = b.var("x", 0);
  b.thread({assign(x, 2)});
  const lang::Program p = std::move(b).build();
  const InvariantResult r =
      check_invariant(p, [xid = x.id](const interp::Config& c) {
        const auto w = c.exec.last(xid);
        return c.exec.event(w).wrval() != 2;
      });
  EXPECT_FALSE(r.holds);
  ASSERT_FALSE(r.counterexample.empty());
  EXPECT_EQ(r.counterexample.entries.back().thread, 1u);
}

TEST(Checker, ReachabilityFindsWitness) {
  const auto parsed = lang::parse_litmus(R"(litmus W
var x = 0
thread 1 { x := 1; }
thread 2 { r0 := x; }
exists (2:r0 == 1)
)");
  const ReachabilityResult r =
      check_reachable(parsed.program, parsed.condition);
  EXPECT_TRUE(r.reachable);
  EXPECT_FALSE(r.witness.empty());
}

TEST(Checker, ReachabilityRejectsImpossible) {
  const auto parsed = lang::parse_litmus(R"(litmus W2
var x = 0
thread 1 { x := 1; }
thread 2 { r0 := x; }
exists (2:r0 == 9)
)");
  const ReachabilityResult r =
      check_reachable(parsed.program, parsed.condition);
  EXPECT_FALSE(r.reachable);
}

TEST(Checker, OutcomesEnumerateFinalValues) {
  const auto parsed = lang::parse_litmus(R"(litmus O
var x = 0
thread 1 { x := 1; }
thread 2 { r0 := x; }
)");
  const OutcomeResult r = enumerate_outcomes(parsed.program);
  // r0 in {0, 1}; final x always 1.
  EXPECT_EQ(r.outcomes.size(), 2u);
  for (const Outcome& o : r.outcomes) {
    EXPECT_EQ(o.final_vars[0], 1);
  }
}

TEST(Checker, CollectFinalExecutionsDistinguishesMoOrders) {
  const auto keys = collect_final_executions(two_writers());
  EXPECT_EQ(keys.size(), 2u);
}

TEST(Checker, FinalStateQueriesFuseSilentSteps) {
  // The outcome, reachability and final-execution queries read terminated
  // configurations only, so they fuse silent steps into the step before
  // them even when the caller's step.tau_compress asks for every step. The
  // invariant queries fuse only stutters, which move no pc, and the race
  // query keeps the caller's every-step granularity.
  const auto parsed = lang::parse_litmus(R"(litmus TC
var x = 0
var y = 0
thread 1 { x := 1; r0 := y; }
thread 2 { y := 1; r1 := x; }
exists (1:r0 == 5)
)");
  const lang::Program& p = parsed.program;
  ExploreOptions fused;
  fused.step.tau_compress = interp::TauCompress::kFused;
  ExploreOptions stutter_free;
  stutter_free.step.tau_compress = interp::TauCompress::kStutterFree;
  const ExploreOptions unfused;
  const std::size_t fused_states = explore(p, fused, {}).stats.states;
  const std::size_t stutter_free_states =
      explore(p, stutter_free, {}).stats.states;
  const std::size_t unfused_states = explore(p, unfused, {}).stats.states;
  ASSERT_LT(fused_states, stutter_free_states);
  ASSERT_LT(stutter_free_states, unfused_states);
  const testing::Finals oracle = testing::finals_by_oracle(p);
  ParallelOptions popts;
  popts.explore = unfused;
  popts.workers = 2;

  const OutcomeResult out = enumerate_outcomes(p, unfused);
  EXPECT_EQ(out.stats.states, fused_states);
  EXPECT_EQ(out.outcomes, oracle.outcomes);
  const OutcomeResult par_out = enumerate_outcomes_parallel(p, popts);
  EXPECT_EQ(par_out.stats.states, fused_states);
  EXPECT_EQ(par_out.outcomes, oracle.outcomes);

  // Unreachable, so both searches run to the end.
  const ReachabilityResult reach =
      check_reachable(p, parsed.condition, unfused);
  EXPECT_FALSE(reach.reachable);
  EXPECT_EQ(reach.stats.states, fused_states);
  const ReachabilityResult par_reach =
      check_reachable_parallel(p, parsed.condition, popts);
  EXPECT_FALSE(par_reach.reachable);
  EXPECT_EQ(par_reach.stats.states, fused_states);

  EXPECT_EQ(collect_final_executions(p, unfused), oracle.fingerprints);
  EXPECT_EQ(collect_final_executions_parallel(p, popts), oracle.fingerprints);

  // Asked to fuse or to keep every step, the invariant queries run
  // stutter-free.
  const auto holds = [](const interp::Config&) { return true; };
  for (const ExploreOptions& asked : {fused, unfused}) {
    EXPECT_EQ(check_invariant(p, holds, asked).stats.states,
              stutter_free_states);
    ParallelOptions par_asked;
    par_asked.explore = asked;
    par_asked.workers = 2;
    EXPECT_EQ(check_invariant_parallel(p, holds, par_asked).stats.states,
              stutter_free_states);
  }
  EXPECT_EQ(check_race_free(p, unfused).stats.states, unfused_states);
}

TEST(Parallel, AgreesWithSequentialInvariant) {
  ParallelOptions popts;
  popts.workers = 3;
  const auto seq_r = check_invariant(
      two_writers(), [](const interp::Config&) { return true; });
  const auto par_r = check_invariant_parallel(
      two_writers(), [](const interp::Config&) { return true; }, popts);
  EXPECT_TRUE(par_r.holds);
  EXPECT_EQ(par_r.stats.states, seq_r.stats.states);
}

TEST(Parallel, DetectsViolation) {
  ProgramBuilder b;
  auto x = b.var("x", 0);
  b.thread({assign(x, 2)});
  const lang::Program p = std::move(b).build();
  const auto r = check_invariant_parallel(
      p, [xid = x.id](const interp::Config& c) {
        return c.exec.event(c.exec.last(xid)).wrval() != 2;
      });
  EXPECT_FALSE(r.holds);
  // The parent-pointer records give a real counterexample trace.
  ASSERT_FALSE(r.counterexample.empty());
  EXPECT_EQ(r.counterexample.entries.back().thread, 1u);
}

TEST(Parallel, ReachabilityAgrees) {
  const auto parsed = lang::parse_litmus(R"(litmus PR
var x = 0
thread 1 { x := 1; r0 := x; }
thread 2 { x := 2; }
exists (1:r0 == 2)
)");
  const auto seq_r = check_reachable(parsed.program, parsed.condition);
  const auto par_r =
      check_reachable_parallel(parsed.program, parsed.condition);
  EXPECT_EQ(seq_r.reachable, par_r.reachable);
  EXPECT_TRUE(seq_r.reachable);
  EXPECT_FALSE(par_r.witness.empty());
}

TEST(Trace, FormatsEntries) {
  const auto parsed = lang::parse_litmus(R"(litmus T
var x = 0
thread 1 { x := 1; }
thread 2 { r0 := x; }
exists (2:r0 == 1)
)");
  const ReachabilityResult r =
      check_reachable(parsed.program, parsed.condition);
  ASSERT_TRUE(r.reachable);
  const std::string s = r.witness.to_string(&parsed.program.vars());
  EXPECT_NE(s.find("wr(x, 1)"), std::string::npos);
}

TEST(Stats, ToStringMentionsTruncation) {
  ExploreStats st;
  st.truncated = true;
  EXPECT_NE(st.to_string().find("TRUNCATED"), std::string::npos);
}

}  // namespace
}  // namespace rc11::mc
