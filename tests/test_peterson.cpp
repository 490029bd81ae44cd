// The Peterson case study (Section 5.2, Appendix D), machine-checked:
//  * Theorem 5.8 (mutual exclusion) over the bounded state space;
//  * invariants (4)-(10) at every reachable configuration;
//  * the sanity check that breaking the synchronisation (replacing the
//    release-acquire swap with a relaxed write) breaks mutual exclusion.
#include <gtest/gtest.h>

#include "mc/checker.hpp"
#include "c11/axioms.hpp"
#include "mc/parallel.hpp"
#include "vcgen/peterson.hpp"

namespace rc11::vcgen {
namespace {

mc::ExploreOptions bounded(int loop_bound) {
  mc::ExploreOptions o;
  o.step.loop_bound = loop_bound;
  return o;
}

TEST(Peterson, ProgramShape) {
  PetersonHandles h;
  const lang::Program p = make_peterson(&h);
  EXPECT_EQ(p.thread_count(), 2u);
  EXPECT_EQ(p.initial_values().size(), 3u);
  // turn initialised to 1, flags to 0.
  EXPECT_EQ(p.initial_values()[2].second, 1);
  const interp::Config c0 = interp::initial_config(p);
  EXPECT_EQ(c0.pc(1), 2);
  EXPECT_EQ(c0.pc(2), 2);
}

TEST(Peterson, MutualExclusionTheorem58) {
  const lang::Program p = make_peterson();
  const mc::InvariantResult r =
      mc::check_invariant(p, mutual_exclusion(), bounded(2));
  EXPECT_TRUE(r.holds) << r.counterexample.to_string();
  EXPECT_GT(r.stats.states, 100u);
}

TEST(Peterson, InvariantsFourThroughTen) {
  PetersonHandles h;
  const lang::Program p = make_peterson(&h);
  const InvariantSuiteResult r =
      check_invariants(p, peterson_invariants(h), bounded(1));
  EXPECT_TRUE(r.all_hold) << "failed: " << r.failed << "\n"
                          << r.counterexample.to_string();
}

TEST(Peterson, BothThreadsCanEnterTheCriticalSectionEventually) {
  // Sanity: pc_t = 5 is reachable for each thread (the algorithm is not
  // vacuously safe).
  const lang::Program p = make_peterson();
  for (c11::ThreadId t = 1; t <= 2; ++t) {
    const mc::InvariantResult r = mc::check_invariant(
        p, [t](const interp::Config& c) { return c.pc(t) != 5; },
        bounded(1));
    EXPECT_FALSE(r.holds) << "thread " << t << " never reached the CS";
  }
}

TEST(Peterson, TerminatesWithFlagsDown) {
  const lang::Program p = make_peterson();
  mc::Visitor v;
  std::size_t finals = 0;
  v.on_final = [&](const interp::Config& c) {
    ++finals;
    // Both flags were released: last writes are the releasing false
    // writes.
    EXPECT_EQ(c.exec.event(c.exec.last(0)).wrval(), 0);
    EXPECT_EQ(c.exec.event(c.exec.last(1)).wrval(), 0);
    return true;
  };
  (void)mc::explore(p, bounded(2), v);
  EXPECT_GT(finals, 0u);
}

/// Peterson with the release-acquire swap replaced by a relaxed write of
/// turn: the "first to swap may miss the other's flag" argument collapses
/// and both threads can sit at line 5.
lang::Program broken_peterson() {
  lang::ProgramBuilder b;
  auto flag1 = b.var("flag1", 0);
  auto flag2 = b.var("flag2", 0);
  auto turn = b.var("turn", 1);
  auto body = [&](lang::SharedVar mine, lang::SharedVar theirs,
                  lang::Value other) {
    return lang::seq({
        lang::labeled(2, lang::assign(mine, 1)),
        lang::labeled(3, lang::assign(turn, other)),  // relaxed, no swap!
        lang::labeled(4, lang::while_do(
                             (theirs.acq() == lang::constant(1)) &&
                                 (lang::ExprPtr(turn) ==
                                  lang::constant(other)),
                             lang::skip())),
        lang::labeled(5, lang::skip()),
        lang::labeled(6, lang::assign_rel(mine, 0)),
    });
  };
  b.thread(body(flag1, flag2, 2));
  b.thread(body(flag2, flag1, 1));
  return std::move(b).build();
}

TEST(Peterson, BrokenVariantViolatesMutualExclusion) {
  const mc::InvariantResult r =
      mc::check_invariant(broken_peterson(), mutual_exclusion(), bounded(1));
  EXPECT_FALSE(r.holds) << "relaxed Peterson should NOT be safe";
}

TEST(Peterson, BrokenVariantCounterexamplesReplayToTheViolation) {
  // Both invariant searches run stutter-free, and their counterexamples
  // record that granularity and the loop bound: replayed with them, each
  // leads to a configuration with both threads at line 5.
  const lang::Program p = broken_peterson();
  const mc::InvariantResult seq =
      mc::check_invariant(p, mutual_exclusion(), bounded(1));
  mc::ParallelOptions popts;
  popts.explore = bounded(1);
  popts.workers = 4;
  const mc::InvariantResult par =
      mc::check_invariant_parallel(p, mutual_exclusion(), popts);
  for (const mc::InvariantResult* r : {&seq, &par}) {
    const char* what = r == &seq ? "sequential" : "4 workers";
    ASSERT_FALSE(r->holds) << what;
    ASSERT_FALSE(r->counterexample.empty()) << what;
    EXPECT_EQ(r->counterexample.step.tau_compress,
              interp::TauCompress::kStutterFree)
        << what;
    EXPECT_EQ(r->counterexample.step.loop_bound, 1) << what;
    const auto end = mc::replay_trace(p, r->counterexample);
    ASSERT_TRUE(end.has_value())
        << what << " trace does not replay:\n"
        << r->counterexample.to_string(&p.vars());
    EXPECT_EQ(end->pc(1), 5) << what;
    EXPECT_EQ(end->pc(2), 5) << what;
  }
}

TEST(Peterson, RoundsVariantStaysExclusive) {
  const lang::Program p = make_peterson_rounds(2);
  // Budget: 2 outer unfolds + inner spins share the per-thread counter.
  mc::ExploreOptions opts = bounded(4);
  opts.max_states = 400000;
  const mc::InvariantResult r =
      mc::check_invariant(p, mutual_exclusion(), opts);
  EXPECT_TRUE(r.holds) << r.counterexample.to_string();
}

TEST(Peterson, SoundnessOfReachableStates) {
  // Theorem 4.4 on the Peterson state space: every reachable execution is
  // valid.
  const lang::Program p = make_peterson();
  mc::Visitor v;
  v.on_state = [&](const interp::Config& c) {
    EXPECT_TRUE(c11::is_valid(c.exec));
    return true;
  };
  (void)mc::explore(p, bounded(1), v);
}

}  // namespace
}  // namespace rc11::vcgen
