// Tests for the non-atomic access extension and data-race detection
// (c11/races.hpp): the dr definition of the paper's Memalloy appendix,
// the classic race-free message-passing pattern, and catch-fire
// reporting in the model checker.
#include <gtest/gtest.h>

#include "c11/axioms.hpp"
#include "c11/races.hpp"
#include "lang/builder.hpp"
#include "lang/parser.hpp"
#include "mc/checker.hpp"

namespace rc11::c11 {
namespace {

TEST(Races, ConflictRequiresSameVarAndAWrite) {
  Execution ex = Execution::initial({{0, 0}, {1, 0}});
  const EventId w = ex.add_event(1, Action::wr_na(0, 1));
  ex.mo_insert_after(0, w);
  const EventId r = ex.add_event(2, Action::rd_na(0, 1));
  ex.add_rf(w, r);
  const EventId r2 = ex.add_event(3, Action::rd(1, 0));
  ex.add_rf(1, r2);

  EXPECT_TRUE(conflicting(ex, w, r));
  EXPECT_FALSE(conflicting(ex, w, r2));  // different variable
  EXPECT_FALSE(conflicting(ex, r, r2));  // different variable
  EXPECT_FALSE(conflicting(ex, w, w));   // id excluded
  // Two reads of the same variable do not conflict.
  const EventId r3 = ex.add_event(4, Action::rd_na(0, 1));
  ex.add_rf(w, r3);
  EXPECT_FALSE(conflicting(ex, r, r3));
  // A fence has no location, although its action's var field reads 0.
  const EventId f = ex.add_event(5, Action::fence_rel());
  EXPECT_FALSE(conflicting(ex, f, w));
  EXPECT_FALSE(conflicting(ex, w, f));
}

TEST(Races, UnorderedNaWriteAndReadRace) {
  Execution ex = Execution::initial({{0, 0}});
  const EventId w = ex.add_event(1, Action::wr_na(0, 1));
  ex.mo_insert_after(0, w);
  const EventId r = ex.add_event(2, Action::rd_na(0, 0));
  ex.add_rf(0, r);
  const auto race = find_race(ex);
  ASSERT_TRUE(race.has_value());
  EXPECT_EQ(race->first, w);
  EXPECT_EQ(race->second, r);
  EXPECT_NE(race->to_string(ex).find("data race"), std::string::npos);
}

TEST(Races, AtomicAccessesNeverRace) {
  // Same shape, fully relaxed-atomic: no race (cnf \ (A x A)).
  Execution ex = Execution::initial({{0, 0}});
  const EventId w = ex.add_event(1, Action::wr(0, 1));
  ex.mo_insert_after(0, w);
  const EventId r = ex.add_event(2, Action::rd(0, 0));
  ex.add_rf(0, r);
  EXPECT_FALSE(find_race(ex).has_value());
}

TEST(Races, HbOrderRemovesRace) {
  // NA write releases a flag; acquiring reader then reads NA: the sw edge
  // orders the conflicting accesses, so no race (the classic pattern).
  Execution ex = Execution::initial({{0, 0}, {1, 0}});  // d, f
  const EventId wd = ex.add_event(1, Action::wr_na(0, 5));
  ex.mo_insert_after(0, wd);
  const EventId wf = ex.add_event(1, Action::wr_rel(1, 1));
  ex.mo_insert_after(1, wf);
  const EventId rf_ = ex.add_event(2, Action::rd_acq(1, 1));
  ex.add_rf(wf, rf_);
  const EventId rd_ = ex.add_event(2, Action::rd_na(0, 5));
  ex.add_rf(wd, rd_);
  EXPECT_FALSE(find_race(ex).has_value());
}

TEST(Races, SameThreadAccessesNeverRace) {
  Execution ex = Execution::initial({{0, 0}});
  const EventId w = ex.add_event(1, Action::wr_na(0, 1));
  ex.mo_insert_after(0, w);
  const EventId r = ex.add_event(1, Action::rd_na(0, 1));
  ex.add_rf(w, r);
  EXPECT_FALSE(find_race(ex).has_value());
}

TEST(Races, InitWritesDoNotRace) {
  // The initialising write is sb- (hence hb-) before everything.
  Execution ex = Execution::initial({{0, 0}});
  const EventId r = ex.add_event(1, Action::rd_na(0, 0));
  ex.add_rf(0, r);
  EXPECT_FALSE(find_race(ex).has_value());
}

TEST(Races, RaceWithNewEventMatchesFullScan) {
  Execution ex = Execution::initial({{0, 0}});
  const EventId w = ex.add_event(1, Action::wr_na(0, 1));
  ex.mo_insert_after(0, w);
  const EventId r = ex.add_event(2, Action::rd(0, 0));  // atomic read
  ex.add_rf(0, r);
  const DerivedRelations d = compute_derived(ex);
  // Atomic-vs-NA still races (one side non-atomic suffices).
  const auto incremental = race_with(ex, d, r);
  const auto full = find_race(ex, d);
  ASSERT_TRUE(incremental.has_value());
  ASSERT_TRUE(full.has_value());
  EXPECT_EQ(incremental->first, full->first);
  EXPECT_EQ(incremental->second, full->second);
}

TEST(Races, MaintainedHbIsExposedOnlyWhileValid) {
  Execution ex = Execution::initial({{0, 0}});
  EXPECT_EQ(ex.hb_if_cached(), nullptr);  // raw add_event invalidates
  ex.ensure_cache();
  ASSERT_NE(ex.hb_if_cached(), nullptr);

  // push_event keeps the cache valid; the maintained hb drives race_with
  // exactly as the from-scratch one does.
  Execution::UndoToken t1;
  Execution::UndoToken t2;
  const EventId w = ex.push_event(1, Action::wr_na(0, 1), 0, t1);
  const EventId r = ex.push_event(2, Action::rd(0, 0), 0, t2);
  const util::Relation* hb = ex.hb_if_cached();
  ASSERT_NE(hb, nullptr);
  EXPECT_EQ(*hb, compute_derived(ex).hb);
  const auto race = race_with(ex, *hb, r);
  ASSERT_TRUE(race.has_value());
  EXPECT_EQ(race->first, w);
  EXPECT_EQ(race->second, r);

  ex.clear_rf();
  EXPECT_EQ(ex.hb_if_cached(), nullptr);
}

// --- Model-checker integration --------------------------------------------------

TEST(RaceChecker, RacyProgramDetected) {
  const auto parsed = lang::parse_litmus(R"(litmus Racy
var x = 0
thread 1 { x :=NA 1; }
thread 2 { r0 := x@NA; }
)");
  const mc::RaceResult r = mc::check_race_free(parsed.program);
  EXPECT_FALSE(r.race_free);
  EXPECT_NE(r.race.find("data race"), std::string::npos);
  EXPECT_FALSE(r.trace.empty());
}

TEST(RaceChecker, NewestEventTestReadsTheMaintainedHb) {
  // At every state each sequential engine visits, the race checker's
  // per-state test reads the hb push_event maintains (no from-scratch
  // fallback) and agrees with race_with over from-scratch derived
  // relations.
  const auto parsed = lang::parse_litmus(R"(litmus Racy3
var x = 0
var f = 0
thread 1 { x :=NA 1; f :=R 1; }
thread 2 { r0 := f@A; r1 := x@NA; }
thread 3 { x :=NA 2; }
)");
  for (const mc::PorMode por :
       {mc::PorMode::kNone, mc::PorMode::kSleepSets, mc::PorMode::kSourceSets,
        mc::PorMode::kSourceSetsSleep, mc::PorMode::kOptimal,
        mc::PorMode::kOptimalParsimonious}) {
    const char* mode = mc::por_mode_name(por);
    std::size_t racy_states = 0;
    mc::Visitor v;
    v.on_state = [&](const interp::Config& c) {
      const auto e = static_cast<EventId>(c.exec.size() - 1);
      const auto got = mc::newest_event_race(c.exec);
      // The root, whose newest event is an init write, is skipped before
      // hb is read (its cache is built by the first enumeration).
      if (c.exec.event(e).is_init()) {
        EXPECT_FALSE(got.has_value()) << mode;
        return true;
      }
      EXPECT_NE(c.exec.hb_if_cached(), nullptr) << mode;
      const auto expect = race_with(c.exec, compute_derived(c.exec), e);
      EXPECT_EQ(got.has_value(), expect.has_value()) << mode;
      if (got && expect) {
        EXPECT_EQ(got->first, expect->first) << mode;
        EXPECT_EQ(got->second, expect->second) << mode;
      }
      racy_states += got.has_value();
      return true;
    };
    mc::ExploreOptions opts;
    opts.por = por;
    (void)mc::explore(parsed.program, opts, v);
    EXPECT_GT(racy_states, 0u) << mode;
  }
}

TEST(RaceChecker, PreExecutionFallsBackToFromScratchHb) {
  // The pre-execution semantics builds successors with raw mutations, so
  // its states carry no valid cache; the race test recomputes hb.
  const auto parsed = lang::parse_litmus(R"(litmus RacyPe
var x = 0
thread 1 { x :=NA 1; }
thread 2 { r0 := x@NA; }
)");
  mc::ExploreOptions opts;
  opts.pre_execution = true;
  std::size_t uncached = 0;
  mc::Visitor v;
  v.on_state = [&](const interp::Config& c) {
    uncached += c.exec.hb_if_cached() == nullptr;
    return true;
  };
  (void)mc::explore(parsed.program, opts, v);
  EXPECT_GT(uncached, 0u);
  EXPECT_FALSE(mc::check_race_free(parsed.program, opts).race_free);
}

TEST(RaceChecker, MessagePassingWithReleaseAcquireIsRaceFree) {
  // The motivating pattern: NA data protected by an atomic flag.
  const auto parsed = lang::parse_litmus(R"(litmus Guarded
var d = 0
var f = 0
thread 1 { d :=NA 5; f :=R 1; }
thread 2 { while (f@A == 0) { skip; } r0 := d@NA; }
)");
  mc::ExploreOptions opts;
  opts.step.loop_bound = 3;
  const mc::RaceResult r = mc::check_race_free(parsed.program, opts);
  EXPECT_TRUE(r.race_free) << r.race;
  EXPECT_GT(r.stats.states, 0u);
}

TEST(RaceChecker, RelaxedFlagLeavesARace) {
  // Same pattern but the flag write is relaxed: no sw, so the NA accesses
  // to d are unordered when the reader gets f = 1 early... in fact even
  // reading f = 1 does not order them (relaxed rf is not hb), so the race
  // persists.
  const auto parsed = lang::parse_litmus(R"(litmus Unguarded
var d = 0
var f = 0
thread 1 { d :=NA 5; f := 1; }
thread 2 { while (f@A == 0) { skip; } r0 := d@NA; }
)");
  mc::ExploreOptions opts;
  opts.step.loop_bound = 3;
  const mc::RaceResult r = mc::check_race_free(parsed.program, opts);
  EXPECT_FALSE(r.race_free);
}

TEST(RaceChecker, NaAccessesBehaveLikeRelaxedForValues) {
  // Value-wise, NA accesses read observable writes like relaxed ones.
  const auto parsed = lang::parse_litmus(R"(litmus NaValues
var x = 0
thread 1 { x :=NA 1; }
thread 2 { r0 := x@NA; }
)");
  const mc::OutcomeResult o = mc::enumerate_outcomes(parsed.program);
  // r0 in {0, 1}.
  EXPECT_EQ(o.outcomes.size(), 2u);
}

TEST(RaceChecker, RacefreeProgramsStayValid) {
  // Soundness carries over: executions with NA events still satisfy the
  // Definition-4.2 axioms (NA is relaxed at the rf/mo level).
  const auto parsed = lang::parse_litmus(R"(litmus NaValid
var d = 0
var f = 0
thread 1 { d :=NA 5; f :=R 1; }
thread 2 { r0 := f@A; }
)");
  mc::Visitor v;
  v.on_state = [&](const interp::Config& c) {
    EXPECT_TRUE(is_valid(c.exec));
    return true;
  };
  (void)mc::explore(parsed.program, {}, v);
}

TEST(RaceChecker, ParserRoundTripsNaAnnotations) {
  const auto parsed = lang::parse_litmus(R"(litmus NaSyntax
var x = 0
thread 1 { x :=NA x@NA + 1; }
)");
  const std::string s = parsed.program.thread(1)->to_string(
      &parsed.program.vars());
  EXPECT_NE(s.find(":=NA"), std::string::npos);
  EXPECT_NE(s.find("x^NA"), std::string::npos);
}

}  // namespace
}  // namespace rc11::c11
