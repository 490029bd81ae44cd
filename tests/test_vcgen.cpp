// Tests for the proof calculus (Section 5): determinate-value and
// variable-ordering assertions (Example 5.2), the Figure-4 rules and their
// soundness over reachable transitions (Appendix B), Lemmas 5.3/5.4/5.6,
// and the message-passing verification of Example 5.7.
#include <gtest/gtest.h>

#include "axiomatic/equivalence.hpp"
#include "lang/builder.hpp"
#include "lang/parser.hpp"
#include "litmus/catalog.hpp"
#include "mc/explorer.hpp"
#include "vcgen/assertions.hpp"
#include "vcgen/invariant.hpp"
#include "vcgen/peterson.hpp"
#include "vcgen/rules.hpp"

namespace rc11::vcgen {
namespace {

using c11::Action;

// --- Example 5.2 -----------------------------------------------------------

TEST(DeterminateValue, Example52LeftStateHolds) {
  // wr1(x,2) ; wrR1(y,1) sw rdA2(y,1): after the boxed read, x =_2 2.
  Execution ex = Execution::initial({{0, 0}, {1, 0}});  // x, y
  const auto wx = ex.add_event(1, Action::wr(0, 2));
  ex.mo_insert_after(0, wx);
  const auto wy = ex.add_event(1, Action::wr_rel(1, 1));
  ex.mo_insert_after(1, wy);
  const auto ry = ex.add_event(2, Action::rd_acq(1, 1));
  ex.add_rf(wy, ry);

  const auto d = c11::compute_derived(ex);
  EXPECT_TRUE(determinate_value(ex, d, 2, 0, 2));
  // Before the read (remove it conceptually: thread 2 inactive), x =_2 2
  // would fail — check with a fresh state.
  Execution ex0 = Execution::initial({{0, 0}, {1, 0}});
  const auto wx0 = ex0.add_event(1, Action::wr(0, 2));
  ex0.mo_insert_after(0, wx0);
  const auto d0 = c11::compute_derived(ex0);
  EXPECT_FALSE(determinate_value(ex0, d0, 2, 0, 2));
  // But it holds for the writing thread itself.
  EXPECT_TRUE(determinate_value(ex0, d0, 1, 0, 2));
}

TEST(DeterminateValue, Example52RightStateFails) {
  // The writer of x is another thread read *relaxed* by thread 1: no hb
  // from last(x) into thread 2 even after the acquiring read of y.
  Execution ex = Execution::initial({{0, 0}, {1, 0}});
  const auto wx = ex.add_event(3, Action::wr(0, 2));  // thread 3 writes x
  ex.mo_insert_after(0, wx);
  const auto rx = ex.add_event(1, Action::rd(0, 2));  // relaxed read
  ex.add_rf(wx, rx);
  const auto wy = ex.add_event(1, Action::wr_rel(1, 1));
  ex.mo_insert_after(1, wy);
  const auto ry = ex.add_event(2, Action::rd_acq(1, 1));
  ex.add_rf(wy, ry);

  const auto d = c11::compute_derived(ex);
  EXPECT_FALSE(determinate_value(ex, d, 2, 0, 2));
  // Condition (1) holds (the value is right); it is the hb-cone condition
  // that fails.
  EXPECT_EQ(ex.event(ex.last(0)).wrval(), 2);
  EXPECT_FALSE(hb_cone(ex, d, 2).test(wx));
}

TEST(DeterminateValue, ImpliesObservesOnlyLast) {
  // Definition 5.1's remark: condition (2) implies OW(t)|x = {last(x)}.
  Execution ex = Execution::initial({{0, 0}, {1, 0}});
  const auto wx = ex.add_event(1, Action::wr(0, 2));
  ex.mo_insert_after(0, wx);
  const auto wy = ex.add_event(1, Action::wr_rel(1, 1));
  ex.mo_insert_after(1, wy);
  const auto ry = ex.add_event(2, Action::rd_acq(1, 1));
  ex.add_rf(wy, ry);
  const auto d = c11::compute_derived(ex);
  ASSERT_TRUE(determinate_value(ex, d, 2, 0, 2));
  EXPECT_TRUE(observes_only_last(ex, d, 2, 0));
}

TEST(DeterminateValue, InitialStateDeterminateForAllThreads) {
  // Rule Init: x =_t wrval(last(x)) in initial states.
  const Execution ex = Execution::initial({{0, 7}, {1, 8}});
  for (c11::ThreadId t = 1; t <= 3; ++t) {
    EXPECT_EQ(check_init(ex, t, 0), RuleStatus::kSound);
    EXPECT_EQ(check_init(ex, t, 1), RuleStatus::kSound);
    EXPECT_TRUE(determinate_value(ex, t, 0, 7));
    EXPECT_TRUE(determinate_value(ex, t, 1, 8));
  }
  // Non-initial states are not applicable.
  Execution ex2 = ex;
  const auto w = ex2.add_event(1, Action::wr(0, 1));
  ex2.mo_insert_after(0, w);
  EXPECT_EQ(check_init(ex2, 1, 0), RuleStatus::kNotApplicable);
}

TEST(VarOrder, HoldsAfterOrderedWrites) {
  // Left state of Example 5.2 without the boxed event satisfies x -> y.
  Execution ex = Execution::initial({{0, 0}, {1, 0}});
  const auto wx = ex.add_event(1, Action::wr(0, 2));
  ex.mo_insert_after(0, wx);
  const auto wy = ex.add_event(1, Action::wr_rel(1, 1));
  ex.mo_insert_after(1, wy);
  EXPECT_TRUE(var_order(ex, 0, 1));
  EXPECT_FALSE(var_order(ex, 1, 0));  // hb is not symmetric
}

// --- Lemmas 5.3, 5.4 over reachable transitions ------------------------------------

mc::ExploreOptions bounded(int loop_bound) {
  mc::ExploreOptions o;
  o.step.loop_bound = loop_bound;
  return o;
}

TEST(Lemma53, DeterminateValueReadsReturnTheValue) {
  // Sweep all reachable transitions of MP_ra: whenever
  // var(e) =_{tid(e)} v held before a read, the read returned v.
  const auto prog =
      lang::parse_litmus(litmus::find_test("MP_ra").source).program;
  std::size_t applications = 0;
  mc::Visitor v;
  v.on_transition = [&](const interp::Config& pre,
                        const interp::ConfigStep& step) {
    if (step.silent || !step.action.is_read()) return true;
    const auto d = c11::compute_derived(pre.exec);
    if (auto val =
            determinate_value_of(pre.exec, d, step.thread, step.action.var)) {
      ++applications;
      EXPECT_EQ(step.action.rdval(), *val);
    }
    return true;
  };
  (void)mc::explore(prog, {}, v);
  EXPECT_GT(applications, 0u);
}

TEST(Lemma54, DeterminateValuesAgreeAcrossThreads) {
  const auto prog =
      lang::parse_litmus(litmus::find_test("MP_ra").source).program;
  mc::Visitor v;
  v.on_state = [&](const interp::Config& c) {
    const auto d = c11::compute_derived(c.exec);
    for (c11::VarId x = 0; x < c.exec.var_count(); ++x) {
      std::optional<Value> seen;
      for (c11::ThreadId t = 1; t <= c.thread_count(); ++t) {
        if (auto val = determinate_value_of(c.exec, d, t, x)) {
          if (seen) { EXPECT_EQ(*seen, *val); }
          seen = val;
        }
      }
    }
    return true;
  };
  (void)mc::explore(prog, {}, v);
}

TEST(Lemma56, LastModificationTransitions) {
  // Update-only variables force updates to observe the last write: checked
  // by the rule sweep on a program with competing swaps.
  const auto prog =
      lang::parse_litmus(litmus::find_test("SwapAtomicity").source).program;
  mc::Visitor v;
  std::size_t checked = 0;
  v.on_transition = [&](const interp::Config& pre,
                        const interp::ConfigStep& step) {
    if (step.silent) return true;
    const auto dpre = c11::compute_derived(pre.exec);
    const auto dpost = c11::compute_derived(step.next.exec);
    const TransitionCtx ctx{pre.exec, dpre,         step.next.exec,
                            dpost,    step.observed, step.event};
    const RuleStatus s = check_last_modification(ctx);
    EXPECT_NE(s, RuleStatus::kUnsound);
    if (s == RuleStatus::kSound) ++checked;
    return true;
  };
  (void)mc::explore(prog, {}, v);
  EXPECT_GT(checked, 0u);
}

// --- Figure 4 rule soundness sweeps (Appendix B) --------------------------------------

class RuleSoundnessTest : public ::testing::TestWithParam<std::string> {};

TEST_P(RuleSoundnessTest, AllRulesSoundOnAllReachableTransitions) {
  const auto prog =
      lang::parse_litmus(litmus::find_test(GetParam()).source).program;
  const RuleSoundnessResult r = check_rule_soundness(prog);
  EXPECT_TRUE(r.sound()) << r.first_unsound;
  EXPECT_GT(r.transitions, 0u);
  EXPECT_GT(r.applicable, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Programs, RuleSoundnessTest,
    ::testing::Values("SB", "MP_ra", "MP", "SwapAtomicity", "MP_swap",
                      "CoWW", "W2+2W"),
    [](const ::testing::TestParamInfo<std::string>& info) {
      std::string name = info.param;
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name;
    });

// --- Example 5.7: message passing -----------------------------------------------------

lang::Program message_passing() {
  // 1: d := 5;         1: while !f^A do skip;
  // 2: f :=R 1;        2: r := d;
  lang::ProgramBuilder b;
  auto d = b.var("d", 0);
  auto f = b.var("f", 0);
  auto r = b.reg("r");
  b.thread({lang::labeled(1, lang::assign(d, 5)),
            lang::labeled(2, lang::assign_rel(f, 1))});
  b.thread({lang::labeled(1, lang::while_do(!f.acq(), lang::skip())),
            lang::labeled(2, lang::reg_assign(r, lang::ExprPtr(d)))});
  return std::move(b).build();
}

TEST(Example57, ThreadTwoAtLineTwoHasDeterminateD) {
  const lang::Program prog = message_passing();
  const c11::VarId d_var = prog.vars().lookup("d");
  std::vector<NamedInvariant> invs;
  invs.push_back(
      {"pc2=2 => d =_2 5", [d_var](const interp::Config& c) {
         if (c.pc(2) != 2) return true;
         return determinate_value(c.exec, c11::compute_derived(c.exec), 2,
                                  d_var, 5);
       }});
  const InvariantSuiteResult r =
      check_invariants(prog, invs, bounded(3));
  EXPECT_TRUE(r.all_hold) << r.failed << "\n"
                          << r.counterexample.to_string();
}

TEST(Example57, FinalRegisterAlwaysFive) {
  const lang::Program prog = message_passing();
  const auto reg = prog.find_reg("r");
  ASSERT_TRUE(reg.has_value());
  // r == 5 in every terminated configuration.
  mc::Visitor v;
  std::size_t finals = 0;
  v.on_final = [&](const interp::Config& c) {
    ++finals;
    EXPECT_EQ(c.regs[1][*reg], 5);
    return true;
  };
  (void)mc::explore(prog, bounded(3), v);
  EXPECT_GT(finals, 0u);
}

TEST(Example57, IntermediateProofStepsHold) {
  // After thread 1 executes line 2 (the releasing write), the state
  // satisfies d =_1 5 and d -> f (the WOrd step of the proof sketch).
  const lang::Program prog = message_passing();
  const c11::VarId d_var = prog.vars().lookup("d");
  const c11::VarId f_var = prog.vars().lookup("f");
  mc::Visitor v;
  std::size_t checked = 0;
  v.on_state = [&](const interp::Config& c) {
    if (c.pc(1) != interp::kDonePc) return true;  // thread 1 finished
    const auto d = c11::compute_derived(c.exec);
    EXPECT_TRUE(determinate_value(c.exec, d, 1, d_var, 5));
    EXPECT_TRUE(var_order(c.exec, d, d_var, f_var));
    ++checked;
    return true;
  };
  (void)mc::explore(prog, bounded(2), v);
  EXPECT_GT(checked, 0u);
}

// --- Invariant suites under DPOR ----------------------------------------------------------

// DPOR keeps every terminated state but may skip intermediate ones, which an
// invariant observes. Here every violating state (both last writes 1) is
// intermediate: each thread overwrites its 1 with 0 before it ends. The
// suite must find the violation under DPOR options too, exactly as
// mc::check_invariant does.
TEST(InvariantSuite, FindsIntermediateViolationsUnderDporOptions) {
  const lang::Program prog = lang::parse_litmus(R"(litmus INV_DPOR
var x = 0
var y = 0
thread 1 { x := 1; x := 0; }
thread 2 { y := 1; y := 0; }
)")
                                 .program;
  const c11::VarId x = prog.vars().lookup("x");
  const c11::VarId y = prog.vars().lookup("y");
  const mc::ConfigPredicate not_both_one = [x, y](const interp::Config& c) {
    const Execution& ex = c.exec;
    return ex.event(ex.last(x)).wrval() != 1 ||
           ex.event(ex.last(y)).wrval() != 1;
  };
  for (const mc::PorMode por : {mc::PorMode::kNone, mc::kDefaultPor}) {
    mc::ExploreOptions o;
    o.por = por;
    const InvariantSuiteResult suite =
        check_invariants(prog, {{"not both 1", not_both_one}}, o);
    const mc::InvariantResult single =
        mc::check_invariant(prog, not_both_one, o);
    const std::string mode = mc::por_mode_name(por);
    EXPECT_FALSE(single.holds) << mode;
    EXPECT_FALSE(suite.all_hold) << mode;
    EXPECT_EQ(suite.failed, "not both 1") << mode;
    EXPECT_FALSE(suite.counterexample.empty()) << mode;
    EXPECT_EQ(suite.stats.states, single.stats.states) << mode;
  }
}

// --- hb-form assertions against the from-scratch forms -------------------------------------

// At every reachable state of Peterson at bound 2, the assertions on the
// maintained hb agree with the compute_derived forms and with the hb cone
// built in full, and Peterson's invariants still hold through the
// from-scratch fallback on a copy whose cache is invalid.
TEST(HbFormAssertions, AgreeWithFromScratchFormsAcrossPeterson) {
  PetersonHandles h;
  const lang::Program prog = make_peterson(&h);
  const std::vector<NamedInvariant> invariants = peterson_invariants(h);
  const c11::VarId vars[] = {h.flag1.id, h.flag2.id, h.turn.id};
  std::size_t states = 0;
  std::size_t maintained = 0;
  mc::Visitor visitor;
  visitor.on_state = [&](const interp::Config& c) {
    ++states;
    const Execution& ex = c.exec;
    const DerivedRelations d = c11::compute_derived(ex);
    const util::Relation* hb = ex.hb_if_cached();
    if (hb != nullptr) {
      ++maintained;
    } else {
      hb = &d.hb;
    }
    for (ThreadId t = 1; t <= 2; ++t) {
      const util::Bitset cone = hb_cone(ex, d, t);
      for (const VarId x : vars) {
        const EventId last = ex.last(x);
        for (Value v = 0; v <= 2; ++v) {
          const bool expect =
              ex.event(last).wrval() == v && cone.test(last);
          EXPECT_EQ(determinate_value(ex, *hb, t, x, v), expect)
              << "t" << t << " x" << x << " v" << v;
          EXPECT_EQ(determinate_value(ex, d, t, x, v), expect);
        }
      }
    }
    for (const VarId x : vars) {
      for (const VarId y : vars) {
        const bool expect = d.hb.contains(ex.last(x), ex.last(y));
        EXPECT_EQ(var_order(ex, *hb, x, y), expect) << x << " -> " << y;
        EXPECT_EQ(var_order(ex, d, x, y), expect) << x << " -> " << y;
      }
    }
    interp::Config cold = c;
    util::Bitset all(ex.size());
    all.fill();
    cold.exec = ex.restrict(all);  // same execution, no cache
    EXPECT_EQ(cold.exec.hb_if_cached(), nullptr);
    for (const NamedInvariant& inv : invariants) {
      EXPECT_TRUE(inv.predicate(c)) << inv.name;
      EXPECT_TRUE(inv.predicate(cold)) << inv.name << " (fallback)";
    }
    return !::testing::Test::HasFailure();
  };
  const mc::ExploreResult er = mc::explore(prog, bounded(2), visitor);
  EXPECT_EQ(er.stats.states, 801u);
  EXPECT_EQ(states, er.stats.states);
  // Every state but the root is reached by a step on the maintained hb.
  EXPECT_GE(maintained + 1, states);
}

// --- Transfer rule in action ------------------------------------------------------------

TEST(Transfer, CopiesAssertionAcrossSw) {
  // Build the left Example 5.2 transition explicitly and check the rule.
  Execution pre = Execution::initial({{0, 0}, {1, 0}});
  const auto wx = pre.add_event(1, Action::wr(0, 2));
  pre.mo_insert_after(0, wx);
  const auto wy = pre.add_event(1, Action::wr_rel(1, 1));
  pre.mo_insert_after(1, wy);

  const auto step = c11::ra_step(pre, wy, 2, Action::rd_acq(1, 1));
  ASSERT_TRUE(step.has_value());
  const auto dpre = c11::compute_derived(pre);
  const auto dpost = c11::compute_derived(step->next);
  const TransitionCtx ctx{pre,   dpre,           step->next,
                          dpost, step->observed, step->event};
  EXPECT_EQ(check_transfer(ctx, 1, 0, 2), RuleStatus::kSound);
  // Conclusion: x =_2 2 now holds.
  EXPECT_TRUE(determinate_value(step->next, dpost, 2, 0, 2));
  // AcqRd also applies to the variable being read.
  EXPECT_EQ(check_acq_rd(ctx, 1), RuleStatus::kSound);
  // NoMod preserves thread 1's assertion.
  EXPECT_EQ(check_no_mod(ctx, 1, 0, 2), RuleStatus::kSound);
}

TEST(Rules, NotApplicableWhenPremisesFail) {
  Execution pre = Execution::initial({{0, 0}, {1, 0}});
  const auto step = c11::ra_step(pre, 0, 1, Action::rd(0, 0));
  ASSERT_TRUE(step.has_value());
  const auto dpre = c11::compute_derived(pre);
  const auto dpost = c11::compute_derived(step->next);
  const TransitionCtx ctx{pre,   dpre,           step->next,
                          dpost, step->observed, step->event};
  // The event is a relaxed read: ModLast, AcqRd, WOrd, UOrd all refuse.
  EXPECT_EQ(check_mod_last(ctx, 0), RuleStatus::kNotApplicable);
  EXPECT_EQ(check_acq_rd(ctx, 0), RuleStatus::kNotApplicable);
  EXPECT_EQ(check_w_ord(ctx, 1, 0), RuleStatus::kNotApplicable);
  EXPECT_EQ(check_u_ord(ctx, 1, 0), RuleStatus::kNotApplicable);
  // Transfer needs x -> y which never holds here.
  EXPECT_EQ(check_transfer(ctx, 1, 1, 0), RuleStatus::kNotApplicable);
}

}  // namespace
}  // namespace rc11::vcgen
