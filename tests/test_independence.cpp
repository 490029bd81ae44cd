// Adversarial unit tests for the independence relation's full-RC11
// clauses (mc/independence.hpp): fences never commute with accesses,
// SC-SC access pairs are dependent even across variables, fence/fence
// pairs commute exactly when RC11 says so (everything except SC/SC),
// and the `sc_coupled` flag makes every cross-thread access pair
// dependent once the program contains an SC fence. The differential
// validation (every POR mode vs. full enumeration) lives in
// tests/test_dpor.cpp and tests/test_conformance.cpp; these tests pin
// the individual clauses so a regression names the exact rule it broke.
// Also pinned here: the weak initials race reversal schedules from, the
// candidate initials a pruned revisit schedules when it replays a race
// from its record, and the frame independence of the canonical event ids
// that name a step's observed write in its signature.
#include <gtest/gtest.h>

#include <iterator>
#include <vector>

#include "interp/config.hpp"
#include "lang/parser.hpp"
#include "mc/independence.hpp"

namespace rc11::mc {
namespace {

using c11::ActionKind;

StepSig access(c11::ThreadId t, ActionKind k, c11::VarId var = 0,
               bool sc_coupled = false) {
  StepSig s;
  s.thread = t;
  s.silent = false;
  s.kind = k;
  s.var = var;
  s.sc_coupled = sc_coupled;
  return s;
}

StepSig silent(c11::ThreadId t) {
  StepSig s;
  s.thread = t;
  return s;
}

constexpr ActionKind kFences[] = {ActionKind::kFenceAcq, ActionKind::kFenceRel,
                                  ActionKind::kFenceAR, ActionKind::kFenceSC};
constexpr ActionKind kAccesses[] = {
    ActionKind::kRdX,  ActionKind::kRdA,  ActionKind::kRdNA,
    ActionKind::kRdSC, ActionKind::kWrX,  ActionKind::kWrR,
    ActionKind::kWrNA, ActionKind::kWrSC, ActionKind::kUpdRA,
    ActionKind::kUpdSC};
constexpr ActionKind kScAccesses[] = {ActionKind::kRdSC, ActionKind::kWrSC,
                                      ActionKind::kUpdSC};

TEST(Independence, SameThreadAlwaysDependent) {
  EXPECT_TRUE(dependent(access(1, ActionKind::kRdX, 0),
                        access(1, ActionKind::kRdX, 1)));
  EXPECT_TRUE(dependent(silent(1), silent(1)));
}

TEST(Independence, SilentStepsCommuteWithEverything) {
  for (const ActionKind k : kAccesses) {
    EXPECT_TRUE(independent(silent(1), access(2, k))) << c11::to_string(k);
  }
  for (const ActionKind f : kFences) {
    EXPECT_TRUE(independent(silent(1), access(2, f))) << c11::to_string(f);
  }
}

TEST(Independence, FencesNeverCommuteWithAccesses) {
  // Conservative clause: any fence is dependent with any cross-thread
  // access — same variable or not (an SC fence couples through psc, an
  // acquire/release fence through fence-mediated sw).
  for (const ActionKind f : kFences) {
    for (const ActionKind a : kAccesses) {
      EXPECT_TRUE(dependent(access(1, f), access(2, a, 0)))
          << c11::to_string(f) << " vs " << c11::to_string(a);
      EXPECT_TRUE(dependent(access(1, f), access(2, a, 3)))
          << c11::to_string(f) << " vs " << c11::to_string(a)
          << " (different var)";
    }
  }
}

TEST(Independence, FenceFencePairsIndependentUnlessBothSC) {
  for (const ActionKind f : kFences) {
    for (const ActionKind g : kFences) {
      const bool both_sc = f == ActionKind::kFenceSC &&
                           g == ActionKind::kFenceSC;
      EXPECT_EQ(dependent(access(1, f), access(2, g)), both_sc)
          << c11::to_string(f) << " vs " << c11::to_string(g);
    }
  }
}

TEST(Independence, ScScWritePairsAlwaysDependent) {
  // Same variable and different variables alike: psc_base orders all SC
  // accesses, so pushing one SC write can disable the other.
  EXPECT_TRUE(dependent(access(1, ActionKind::kWrSC, 0),
                        access(2, ActionKind::kWrSC, 0)));
  EXPECT_TRUE(dependent(access(1, ActionKind::kWrSC, 0),
                        access(2, ActionKind::kWrSC, 5)));
}

TEST(Independence, AllScScAccessPairsDependent) {
  for (const ActionKind a : kScAccesses) {
    for (const ActionKind b : kScAccesses) {
      EXPECT_TRUE(dependent(access(1, a, 0), access(2, b, 7)))
          << c11::to_string(a) << " vs " << c11::to_string(b);
    }
  }
}

TEST(Independence, ScReadsOfDifferentVarsFromNonScAreIndependent) {
  // One SC access against a non-SC access on a different variable
  // commutes (psc edges incident to a single new SC event cannot close a
  // cycle among old events when no SC fence exists).
  EXPECT_TRUE(independent(access(1, ActionKind::kRdSC, 0),
                          access(2, ActionKind::kWrX, 1)));
  EXPECT_TRUE(independent(access(1, ActionKind::kWrSC, 0),
                          access(2, ActionKind::kRdA, 1)));
}

TEST(Independence, ScCoupledMakesAllAccessPairsDependent) {
  // With an SC fence in the program, any access push can create psc_f
  // edges between old fences (hb;eco;hb), so even plain reads of
  // different variables stop commuting.
  EXPECT_TRUE(dependent(access(1, ActionKind::kRdX, 0, true),
                        access(2, ActionKind::kRdX, 1, true)));
  EXPECT_TRUE(dependent(access(1, ActionKind::kWrX, 0, true),
                        access(2, ActionKind::kWrX, 1, false)));
  // Without the flag the same pairs commute.
  EXPECT_TRUE(independent(access(1, ActionKind::kRdX, 0),
                          access(2, ActionKind::kRdX, 1)));
  EXPECT_TRUE(independent(access(1, ActionKind::kWrX, 0),
                          access(2, ActionKind::kWrX, 1)));
}

TEST(Independence, ClassicalClausesStillHold) {
  // Different variables commute; same-variable read pairs commute;
  // same-variable read/write and write/write conflict; RMWs conflict
  // with every same-variable access.
  EXPECT_TRUE(independent(access(1, ActionKind::kWrX, 0),
                          access(2, ActionKind::kWrX, 1)));
  EXPECT_TRUE(independent(access(1, ActionKind::kRdX, 0),
                          access(2, ActionKind::kRdA, 0)));
  EXPECT_TRUE(dependent(access(1, ActionKind::kRdX, 0),
                        access(2, ActionKind::kWrX, 0)));
  EXPECT_TRUE(dependent(access(1, ActionKind::kWrX, 0),
                        access(2, ActionKind::kWrR, 0)));
  EXPECT_TRUE(dependent(access(1, ActionKind::kUpdRA, 0),
                        access(2, ActionKind::kRdX, 0)));
}

// --- sc_coupled plumbing -----------------------------------------------------

TEST(Independence, SigsOfTagsSignaturesWhenProgramHasScFence) {
  const lang::ParsedLitmus parsed = lang::parse_litmus(
      "litmus f\n"
      "var x = 0\n"
      "thread 1 { x := 1; fence_sc; }\n"
      "thread 2 { r0 := x; }\n");
  interp::Config c = interp::initial_config(parsed.program);
  ASSERT_TRUE(c.has_sc_fence);

  std::vector<interp::Step> steps;
  interp::enumerate_steps(c, {}, steps);
  ASSERT_FALSE(steps.empty());

  std::vector<StepSig> sigs;
  sigs_of(steps, c.exec, sigs, c.has_sc_fence);
  for (const StepSig& s : sigs) {
    if (!s.silent) EXPECT_TRUE(s.sc_coupled);
  }
  // The same steps without the flag: untagged.
  sigs_of(steps, c.exec, sigs);
  for (const StepSig& s : sigs) EXPECT_FALSE(s.sc_coupled);
}

// --- Weak initials (race reversal in dpor.cpp) -------------------------------

TEST(Independence, WeakInitialIndices) {
  // v = [t1 wr x, t2 wr y, t3 wr x]: t1 and t2 are weak initials; t3's
  // write of x has the dependent predecessor t1.
  const StepSig v[] = {access(1, ActionKind::kWrX, 0),
                       access(2, ActionKind::kWrX, 1),
                       access(3, ActionKind::kWrX, 0)};
  std::vector<std::size_t> wi;
  weak_initial_indices(
      std::size(v), [&](std::size_t j) -> const StepSig& { return v[j]; }, wi);
  EXPECT_EQ(wi, (std::vector<std::size_t>{0, 1}));
}

// --- Candidate initials of a replayed race (pruned revisits in dpor.cpp) ----

/// A hand-built trace E = e_1..e_d (spine[0] unused) with the hb rows the
/// DPOR engine caches: rows[k][i] != 0 iff e_i ->hb e_k.
struct Spine {
  std::vector<StepSig> sigs{StepSig{}};
  std::vector<std::vector<char>> rows{{}};

  [[nodiscard]] std::size_t depth() const { return sigs.size() - 1; }
  [[nodiscard]] auto sig_at() const {
    return [this](std::size_t k) -> const StepSig& { return sigs[k]; };
  }
  [[nodiscard]] auto row_at() const {
    return [this](std::size_t k) -> const std::vector<char>& {
      return rows[k];
    };
  }

  explicit Spine(std::initializer_list<StepSig> events) {
    for (const StepSig& e : events) {
      rows.emplace_back();
      build_hb_row(depth(), e, sig_at(), rows.back());
      sigs.push_back(e);
    }
  }
};

TEST(Independence, SummaryRaceInitialsAreWeakInitialsOfNotdep) {
  // E = [t1 wr x, t2 wr y, t3 wr x, t4 wr y], replayed t = t5 rd x racing
  // e_1. notdep(e_1, E) = [e_2, e_4] (e_3 writes x after e_1); e_4 has the
  // dependent predecessor e_2, so WI(N) = {e_2}: thread 2, one of which
  // suffices. The enabled set plays no part.
  const Spine e{access(1, ActionKind::kWrX, 0), access(2, ActionKind::kWrX, 1),
                access(3, ActionKind::kWrX, 0), access(4, ActionKind::kWrX, 1)};
  const StepSig t = access(5, ActionKind::kRdX, 0);
  const std::vector<StepSig> enabled = {access(6, ActionKind::kWrX, 2)};
  std::vector<c11::ThreadId> out;
  EXPECT_FALSE(summary_race_initials(1, e.depth(), t, e.sig_at(), e.row_at(),
                                     enabled, out));
  EXPECT_EQ(out, (std::vector<c11::ThreadId>{2}));
}

TEST(Independence, SummaryRaceInitialsWithEmptyNotdepTakeFreeEnabledThreads) {
  // E = [t1 wr x, t2 wr x]: e_2 happens-after e_1, so notdep(e_1, E) is
  // empty. The candidates are thread(t) = 3 plus every thread with an
  // enabled signature independent of e_1 and e_2: thread 4 (wr y). Thread
  // 5 reads x and thread 2 is e_2's own thread, so both depend on e_2;
  // thread 6's write of z commutes with both. Each must be scheduled.
  const Spine e{access(1, ActionKind::kWrX, 0), access(2, ActionKind::kWrX, 0)};
  const StepSig t = access(3, ActionKind::kRdX, 0);
  const std::vector<StepSig> enabled = {
      access(2, ActionKind::kWrX, 1), access(3, ActionKind::kRdX, 0),
      access(4, ActionKind::kWrX, 1), access(5, ActionKind::kRdX, 0),
      access(6, ActionKind::kWrX, 2), access(6, ActionKind::kRdX, 0)};
  std::vector<c11::ThreadId> out;
  EXPECT_TRUE(summary_race_initials(1, e.depth(), t, e.sig_at(), e.row_at(),
                                    enabled, out));
  EXPECT_EQ(out, (std::vector<c11::ThreadId>{3, 4, 6}));
}

TEST(Independence, SummaryRaceInitialsSkipThreadsThatConflictWithTheLastEvent) {
  // E = [t1 wrSC x, t2 wrSC y]: SC accesses are pairwise dependent, so
  // e_2 happens-after e_1. Thread 7's only enabled step writes y: it
  // commutes with e_1 but conflicts with e_d = e_2, so no race at e_1 or
  // e_2 yields it. Thread 8 writes z and commutes with both; thread 9 has
  // one step that conflicts with e_2 and one that does not.
  const Spine e{access(1, ActionKind::kWrSC, 0),
                access(2, ActionKind::kWrSC, 1)};
  const StepSig t = access(3, ActionKind::kRdSC, 2);
  const std::vector<StepSig> enabled = {access(7, ActionKind::kWrX, 1),
                                        access(8, ActionKind::kWrX, 2),
                                        access(9, ActionKind::kRdX, 1),
                                        access(9, ActionKind::kRdX, 2)};
  std::vector<c11::ThreadId> out;
  for (const std::size_t i : {std::size_t{1}, std::size_t{2}}) {
    EXPECT_TRUE(summary_race_initials(i, e.depth(), t, e.sig_at(),
                                      e.row_at(), enabled, out))
        << "race at e_" << i;
    EXPECT_EQ(out, (std::vector<c11::ThreadId>{3, 8, 9})) << "race at e_" << i;
  }
}

// --- Canonical event identity ------------------------------------------------

TEST(CanonicalEvents, FrameIndependence) {
  // Two threads writing distinct variables: appending in either order
  // yields different tags but identical canonical ids.
  const lang::ParsedLitmus parsed = lang::parse_litmus(
      "litmus w2\n"
      "var x = 0\n"
      "var y = 0\n"
      "thread 1 { x := 1; }\n"
      "thread 2 { y := 1; }\n");
  const interp::StepOptions opts;
  // Applies thread `first`'s step, then the other thread's.
  const auto run = [&](c11::ThreadId first) {
    interp::Config c = interp::initial_config(parsed.program);
    std::vector<interp::Step> steps;
    for (const c11::ThreadId t : {first, 3 - first}) {
      interp::enumerate_steps(c, opts, steps);
      for (const interp::Step& s : steps) {
        if (s.thread == t && !s.silent) {
          (void)interp::apply_step(c, s, opts);
          break;
        }
      }
    }
    return c;
  };
  const interp::Config c1 = run(1);
  const interp::Config c2 = run(2);
  const auto find_write = [](const interp::Config& c, c11::VarId var) {
    for (c11::EventId e = 0; e < c.exec.size(); ++e) {
      if (!c.exec.event(e).is_init() && c.exec.event(e).is_write() &&
          c.exec.event(e).var() == var) {
        return e;
      }
    }
    return c11::kNoEvent;
  };
  const c11::EventId w1 = find_write(c1, 0);
  const c11::EventId w2 = find_write(c2, 0);
  ASSERT_NE(w1, c11::kNoEvent);
  ASSERT_NE(w2, c11::kNoEvent);
  // Tags shift with the interleaving; canonical ids don't.
  EXPECT_NE(w1, w2);
  EXPECT_EQ(interp::canonical_event_ids(c1.exec)[w1],
            interp::canonical_event_ids(c2.exec)[w2]);
}

TEST(CanonicalEvents, SentinelIsNoRealEvent) {
  // The "no observed write" sentinel must never equal a real canonical
  // id — in particular not {0, 0}, the initialising write of variable 0.
  const lang::ParsedLitmus parsed = lang::parse_litmus(
      "litmus w1\n"
      "var x = 0\n"
      "thread 1 { x := 1; }\n");
  const interp::Config c = interp::initial_config(parsed.program);
  for (const interp::CanonicalEventId& cid :
       interp::canonical_event_ids(c.exec)) {
    EXPECT_NE(cid, kNoCanonicalObserved);
  }
}

}  // namespace
}  // namespace rc11::mc
