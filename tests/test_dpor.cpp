// Differential oracle for the partial-order reduction layers.
//
// POR bugs manifest as *silently missed* executions, so every reduction
// mode is cross-checked against full enumeration — never against itself.
// For each program in the litmus catalogue plus a table of hand-written
// racy/raceless programs, the oracle asserts that
//
//   {sequential, parallel} x {full, sleep sets, source-DPOR+sleep}
//
// all agree on: the litmus exists-condition verdict, the set of
// final-state (terminated-execution) fingerprints, the outcome set, and
// the race verdict. The final-state references come from
// testing::finals_by_oracle: full exploration with every silent step its
// own transition, where every query here fuses them. Race verdicts are
// checked against a from-scratch all-pairs oracle rather than full
// exploration's own race query. Also enforced here:
//
//   * the default DPOR mode explores at most 50% of the full-exploration
//     state count on at least half the catalogue;
//   * on all-conflicting programs, the stateful source-set engine runs
//     fewer transitions than full exploration and re-explores little
//     (redundant_transitions under a quarter of its transitions); the
//     deduplicating graph explorers never re-explore;
//   * DPOR visits a subset of the reachable states (never an invented
//     one);
//   * every race trace and reachability witness, in every mode, replays
//     deterministically to the reported state (replay_trace);
//   * check_invariant downgrades DPOR to the state-preserving sleep-set
//     mode;
//   * the sequential source-set engine's exact counters on fixed programs,
//     and its two cold paths: Visitor::on_transition, and a pre-execution
//     search (run under sleep sets).
#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "c11/races.hpp"
#include "helpers.hpp"
#include "lang/builder.hpp"
#include "lang/generator.hpp"
#include "lang/parser.hpp"
#include "litmus/catalog.hpp"
#include "litmus/import.hpp"
#include "mc/checker.hpp"
#include "mc/dpor.hpp"
#include "mc/parallel.hpp"

namespace rc11::mc {
namespace {

using lang::assign;
using lang::assign_na;
using lang::assign_rel;
using lang::ProgramBuilder;
using lang::reg_assign;

struct Mode {
  const char* name;
  PorMode por;
  bool parallel;
};

constexpr Mode kModes[] = {
    {"seq-full", PorMode::kNone, false},
    {"seq-sleep", PorMode::kSleepSets, false},
    {"seq-dpor-sleep", PorMode::kSourceSetsSleep, false},
    {"par-full", PorMode::kNone, true},
    {"par-sleep", PorMode::kSleepSets, true},
    {"par-dpor-sleep", PorMode::kSourceSetsSleep, true},
};

ExploreOptions seq_options(PorMode por) {
  ExploreOptions o;
  o.por = por;
  return o;
}

ParallelOptions par_options(PorMode por) {
  ParallelOptions o;
  o.explore.por = por;
  o.workers = 4;
  return o;
}

std::set<util::Fingerprint> final_fps(const lang::Program& p, const Mode& m) {
  if (m.parallel) {
    return collect_final_executions_parallel(p, par_options(m.por));
  }
  return collect_final_executions(p, seq_options(m.por));
}

std::set<Outcome> outcomes(const lang::Program& p, const Mode& m) {
  if (m.parallel) {
    return enumerate_outcomes_parallel(p, par_options(m.por)).outcomes;
  }
  return enumerate_outcomes(p, seq_options(m.por)).outcomes;
}

bool reachable(const lang::Program& p, const lang::CondPtr& cond,
               const Mode& m) {
  if (m.parallel) {
    return check_reachable_parallel(p, cond, par_options(m.por)).reachable;
  }
  return check_reachable(p, cond, seq_options(m.por)).reachable;
}

RaceResult race(const lang::Program& p, const Mode& m) {
  if (m.parallel) return check_race_free_parallel(p, par_options(m.por));
  return check_race_free(p, seq_options(m.por));
}

// --- The differential oracle over the litmus catalogue ------------------------

TEST(DporOracle, VerdictsAgreeAcrossCatalog) {
  for (const auto& test : litmus::catalog()) {
    const auto parsed = lang::parse_litmus(test.source);
    const bool expect =
        testing::finals_by_oracle(parsed.program, parsed.condition).reachable;
    for (const Mode& m : kModes) {
      EXPECT_EQ(reachable(parsed.program, parsed.condition, m), expect)
          << test.name << " under " << m.name;
    }
  }
}

TEST(DporOracle, FinalStateFingerprintsAgreeAcrossCatalog) {
  for (const auto& test : litmus::catalog()) {
    const auto parsed = lang::parse_litmus(test.source);
    const auto expect = testing::finals_by_oracle(parsed.program).fingerprints;
    ASSERT_FALSE(expect.empty()) << test.name;
    for (const Mode& m : kModes) {
      EXPECT_EQ(final_fps(parsed.program, m), expect)
          << test.name << " under " << m.name;
    }
  }
}

TEST(DporOracle, OutcomesAgreeAcrossCatalog) {
  for (const auto& test : litmus::catalog()) {
    const auto parsed = lang::parse_litmus(test.source);
    const auto expect = testing::finals_by_oracle(parsed.program).outcomes;
    for (const Mode& m : kModes) {
      EXPECT_EQ(outcomes(parsed.program, m), expect)
          << test.name << " under " << m.name;
    }
  }
}

TEST(DporOracle, DporVisitsOnlyReachableStates) {
  // The DPOR engine counts unique fingerprints, which must be a subset of
  // the full exploration's reachable set — never more states, and never
  // an invented one (checked via counts plus fingerprint-set inclusion on
  // the finals above).
  for (const auto& test : litmus::catalog()) {
    const auto parsed = lang::parse_litmus(test.source);
    const auto full = explore(parsed.program, seq_options(PorMode::kNone), {});
    const auto dpor = explore(parsed.program, seq_options(kDefaultPor), {});
    EXPECT_LE(dpor.stats.states, full.stats.states) << test.name;
    EXPECT_GT(dpor.stats.states, 0u) << test.name;
  }
}

TEST(DporOracle, DefaultDporHalvesStatesOnHalfTheCatalog) {
  // The ISSUE acceptance bar: the default reduction explores <= 50% of
  // the full-exploration state count on at least half the catalogue.
  std::size_t total = 0;
  std::size_t halved = 0;
  std::string summary;
  for (const auto& test : litmus::catalog()) {
    const auto parsed = lang::parse_litmus(test.source);
    const auto full = explore(parsed.program, seq_options(PorMode::kNone), {});
    const auto dpor = explore(parsed.program, seq_options(kDefaultPor), {});
    ++total;
    if (dpor.stats.states * 2 <= full.stats.states) ++halved;
    summary += test.name + std::string(": ") +
               std::to_string(dpor.stats.states) + "/" +
               std::to_string(full.stats.states) + "\n";
  }
  EXPECT_GE(halved * 2, total) << "DPOR states / full states per test:\n"
                               << summary;
}

// --- Programs shared by the redundancy and counter pins ----------------------

// The three shapes of verdictbench/programs/shapes, comments dropped.
constexpr const char* kIndep4 = R"(litmus indep4
var x0 = 0
var x1 = 0
var x2 = 0
var x3 = 0
thread 1 { x0 := 1; x0 := 2; a := x1; b := x0; }
thread 2 { x1 := 1; x1 := 2; a := x2; b := x1; }
thread 3 { x2 := 1; x2 := 2; a := x3; b := x2; }
thread 4 { x3 := 1; x3 := 2; a := x0; b := x3; }
)";

constexpr const char* kMixed5 = R"(litmus mixed5
var x = 0
var y = 0
var z = 0
thread 1 { x :=R 1; a := y@A; }
thread 2 { y :=R 1; a := z@A; }
thread 3 { z :=R 1; a := x@A; }
thread 4 { a := x@A; b := y@A; c := z@A; }
thread 5 { a := z@A; b := y@A; c := x@A; }
exists (4:a == 1 && 4:c == 0 && 5:a == 1 && 5:c == 0)
)";

constexpr const char* kConflict4 = R"(litmus conflict4
var x = 0
thread 1 { x := 1; a := x; }
thread 2 { x := 2; a := x; }
thread 3 { x := 3; a := x; }
thread 4 { a := x; b := x; }
forbidden (4:a == 2 && 4:b == 0)
)";

/// conflict4 with every access SC.
constexpr const char* kAllScConflict4 = R"(litmus all_sc_conflict4
var x = 0
thread 1 { x :=SC 1; a := x@SC; }
thread 2 { x :=SC 2; a := x@SC; }
thread 3 { x :=SC 3; a := x@SC; }
thread 4 { a := x@SC; b := x@SC; }
)";

// --- Tree-engine redundancy ---------------------------------------------------

TEST(DporRedundancy, StatefulDporStaysBelowFullExplorationOnConflictingPrograms) {
  // Every access of these programs conflicts, so interleavings keep
  // meeting at configurations already visited. A revisit whose first
  // visit is complete is a leaf, so the engine runs fewer transitions
  // than the deduplicating full search, and the subtrees it still
  // re-explores (below revisits whose record was not ready or asked for
  // more) stay under a quarter of its transitions. Full exploration's
  // transition counts are pinned, and rechecked where that is cheap: its
  // conflict4 runs are slow under the sanitizers.
  const auto iriw_fence_sc = litmus::import_file(std::string(RC11_CORPUS_DIR) +
                                                 "/IRIW+fence-sc.litmus");
  const struct {
    std::string name;
    std::string source;
    std::size_t full_transitions;
    bool recheck_full;
  } cases[] = {
      {"conflict4", kConflict4, 148'772, false},
      {"CoRR2", litmus::find_test("CoRR2").source, 3'280, true},
      {"all-SC conflict4", kAllScConflict4, 148'772, false},
      {"IRIW+fence-sc", iriw_fence_sc.source, 1'766, true},
  };
  for (const auto& c : cases) {
    const auto parsed = lang::parse_litmus(c.source);
    if (c.recheck_full) {
      EXPECT_EQ(explore(parsed.program, seq_options(PorMode::kNone), {})
                    .stats.transitions,
                c.full_transitions)
          << c.name;
    }
    const auto r = explore(parsed.program, seq_options(kDefaultPor), {});
    EXPECT_FALSE(r.stats.truncated) << c.name;
    EXPECT_LT(r.stats.transitions, c.full_transitions) << c.name;
    EXPECT_LT(r.stats.redundant_transitions * 4, r.stats.transitions)
        << c.name << ": " << r.stats.redundant_transitions << " of "
        << r.stats.transitions << " transitions re-explored";
  }
}

TEST(DporRedundancy, GraphExplorersReportZeroRedundancy) {
  // The deduplicating graph explorers merge duplicates instead of
  // re-expanding them: redundant_transitions is tree-engine-only.
  const auto parsed = lang::parse_litmus(litmus::find_test("CoRR2").source);
  for (PorMode por : {PorMode::kNone, PorMode::kSleepSets}) {
    const auto r = explore(parsed.program, seq_options(por), {});
    EXPECT_EQ(r.stats.redundant_transitions, 0u) << por_mode_name(por);
    EXPECT_EQ(r.stats.sleep_blocked, 0u) << por_mode_name(por);
  }
}

// --- Hand-written racy / raceless programs ------------------------------------

struct NamedProgram {
  std::string name;
  lang::Program program;
  bool racy;  ///< expected race verdict
};

std::vector<NamedProgram> race_table() {
  std::vector<NamedProgram> table;
  {
    // Unsynchronised NA write vs NA read: the canonical race.
    ProgramBuilder b;
    auto d = b.var("d", 0);
    auto r0 = b.reg("r0");
    b.thread({assign_na(d, 1)});
    b.thread({reg_assign(r0, d.na())});
    table.push_back({"na_race", std::move(b).build(), true});
  }
  {
    // Release/acquire message passing protects the NA data: raceless.
    ProgramBuilder b;
    auto d = b.var("d", 0);
    auto f = b.var("f", 0);
    auto r0 = b.reg("r0");
    auto r1 = b.reg("r1");
    b.thread({assign_na(d, 5), assign_rel(f, 1)});
    b.thread({reg_assign(r0, f.acq()),
              lang::if_then_else(lang::ExprPtr(r0) == lang::constant(1),
                                 reg_assign(r1, d.na()), lang::skip())});
    table.push_back({"na_mp_ra_guarded", std::move(b).build(), false});
  }
  {
    // Same shape but the flag is relaxed: no sw edge, so the guarded NA
    // read still races with the NA write.
    ProgramBuilder b;
    auto d = b.var("d", 0);
    auto f = b.var("f", 0);
    auto r0 = b.reg("r0");
    auto r1 = b.reg("r1");
    b.thread({assign_na(d, 5), assign(f, 1)});
    b.thread({reg_assign(r0, f),
              lang::if_then_else(lang::ExprPtr(r0) == lang::constant(1),
                                 reg_assign(r1, d.na()), lang::skip())});
    table.push_back({"na_mp_rlx_races", std::move(b).build(), true});
  }
  {
    // NA writes to distinct variables: no conflict, raceless.
    ProgramBuilder b;
    auto x = b.var("x", 0);
    auto y = b.var("y", 0);
    b.thread({assign_na(x, 1)});
    b.thread({assign_na(y, 1)});
    table.push_back({"na_disjoint_vars", std::move(b).build(), false});
  }
  {
    // Fully atomic contention: atomics never race.
    ProgramBuilder b;
    auto x = b.var("x", 0);
    auto r0 = b.reg("r0");
    b.thread({assign(x, 1), assign(x, 2)});
    b.thread({lang::swap(x, 3)});
    b.thread({reg_assign(r0, lang::ExprPtr(x))});
    table.push_back({"atomic_contention", std::move(b).build(), false});
  }
  {
    // Two NA writers to the same variable: write/write race.
    ProgramBuilder b;
    auto x = b.var("x", 0);
    b.thread({assign_na(x, 1)});
    b.thread({assign_na(x, 2)});
    table.push_back({"na_ww_race", std::move(b).build(), true});
  }
  {
    // A fence accesses no variable, so it races with nothing, not even an
    // unordered NA write to the variable its action's placeholder names.
    ProgramBuilder b;
    auto x = b.var("x", 0);
    b.thread({lang::fence(lang::FenceMode::kRelease)});
    b.thread({assign_na(x, 1)});
    table.push_back({"fence_vs_na_write", std::move(b).build(), false});
  }
  return table;
}

// --- Race oracle ----------------------------------------------------------------
//
// check_race_free and check_race_free_parallel test only each visited
// state's newest event, against the hb push_event maintains. The oracle
// (testing::racy_by_oracle) runs the from-scratch all-pairs find_race at
// every reachable state, so a hole in the newest-event argument, or a racy
// state some engine never visits, shows up as a disagreement.

/// Asserts the race verdict of mode `m` on `entry`, and that a racy
/// result's trace replays to a state where find_race succeeds.
void expect_race_verdict(const NamedProgram& entry, const Mode& m,
                         bool racy) {
  const RaceResult r = race(entry.program, m);
  const std::string tag = entry.name + " under " + m.name;
  EXPECT_FALSE(r.stats.truncated) << tag;
  EXPECT_EQ(r.race_free, !racy) << tag << (r.race_free ? "" : ": " + r.race);
  if (r.race_free) return;
  ASSERT_FALSE(r.trace.empty()) << tag;
  const auto c = replay_trace(entry.program, r.trace);
  ASSERT_TRUE(c.has_value()) << tag << ": trace does not replay";
  EXPECT_TRUE(c11::find_race(c->exec).has_value())
      << tag << ": replayed state has no race";
}

TEST(DporOracle, RaceVerdictsAgreeWithFromScratchOracle) {
  // The hand-written table and the corpus's non-atomic SB carry expected
  // verdicts, which the oracle must reproduce; generated programs with NA
  // accesses widen the net.
  std::vector<NamedProgram> programs = race_table();
  const auto sb_na =
      litmus::import_file(std::string(RC11_CORPUS_DIR) + "/SB+na.litmus");
  programs.push_back(
      {sb_na.name, lang::parse_litmus(sb_na.source).program, true});
  const std::size_t annotated = programs.size();
  constexpr std::uint32_t kDraws = 12;
  for (std::uint32_t i = 0; i < kDraws; ++i) {
    lang::GeneratorOptions o;
    o.seed = 0x4ACE + i;
    o.threads = 2 + static_cast<int>(i % 2);
    o.vars = 2 + static_cast<int>(i % 3 == 2);
    o.stmts_per_thread = o.threads == 2 ? 3 : 2;
    o.allow_nonatomic = true;
    programs.push_back({"na-draw-" + std::to_string(o.seed),
                        lang::generate_program(o), false});
  }

  std::size_t racy_draws = 0;
  for (std::size_t k = 0; k < programs.size(); ++k) {
    const NamedProgram& entry = programs[k];
    const bool racy = testing::racy_by_oracle(entry.program);
    if (k < annotated) {
      EXPECT_EQ(racy, entry.racy) << entry.name << ": oracle vs annotation";
    } else {
      racy_draws += racy;
    }
    for (const Mode& m : kModes) expect_race_verdict(entry, m, racy);
  }
  // The draws exercise both verdicts.
  EXPECT_GT(racy_draws, 0u);
  EXPECT_LT(racy_draws, kDraws);
}

TEST(DporOracle, OutcomesAgreeOnHandwrittenTable) {
  // The racy/raceless table is also a differential workload for the
  // outcome and fingerprint oracles (NA accesses behave as relaxed at the
  // rf/mo layer, so full enumeration is well-defined).
  for (const auto& entry : race_table()) {
    const testing::Finals expect = testing::finals_by_oracle(entry.program);
    for (const Mode& m : kModes) {
      EXPECT_EQ(outcomes(entry.program, m), expect.outcomes)
          << entry.name << " under " << m.name;
      EXPECT_EQ(final_fps(entry.program, m), expect.fingerprints)
          << entry.name << " under " << m.name;
    }
  }
}

// --- Trace-replay regressions -------------------------------------------------

TEST(DporTraces, WitnessesReplayAcrossCatalog) {
  // Every witness, in every mode of both explorers, must replay
  // deterministically to a terminated state satisfying the condition. The
  // caller passes no step options: the trace records the granularity its
  // search ran at.
  std::size_t replayed = 0;
  for (const auto& test : litmus::catalog()) {
    const auto parsed = lang::parse_litmus(test.source);
    for (const Mode& m : kModes) {
      const ReachabilityResult r =
          m.parallel ? check_reachable_parallel(parsed.program,
                                                parsed.condition,
                                                par_options(m.por))
                     : check_reachable(parsed.program, parsed.condition,
                                       seq_options(m.por));
      if (!r.reachable) continue;
      const std::string tag = test.name + " under " + m.name;
      const auto c = replay_trace(parsed.program, r.witness);
      ASSERT_TRUE(c.has_value()) << tag << ": witness does not replay";
      EXPECT_TRUE(c->terminated()) << tag;
      EXPECT_TRUE(interp::eval_cond(parsed.condition, *c)) << tag;
      ++replayed;
    }
  }
  EXPECT_GT(replayed, 0u);
}

// --- Invariant downgrade ------------------------------------------------------

TEST(DporOracle, CheckInvariantDowngradesDporToSleepSets) {
  // Invariants observe intermediate global states, which DPOR may skip;
  // the checker must fall back to the state-preserving sleep-set mode —
  // observable as an identical state count to the plain run.
  const auto parsed = lang::parse_litmus(litmus::find_test("SB").source);
  const auto plain = check_invariant(
      parsed.program, [](const interp::Config&) { return true; },
      seq_options(PorMode::kNone));
  const auto dpor = check_invariant(
      parsed.program, [](const interp::Config&) { return true; },
      seq_options(kDefaultPor));
  EXPECT_TRUE(dpor.holds);
  EXPECT_EQ(dpor.stats.states, plain.stats.states);

  const auto par_dpor = check_invariant_parallel(
      parsed.program, [](const interp::Config&) { return true; },
      par_options(kDefaultPor));
  EXPECT_TRUE(par_dpor.holds);
  EXPECT_EQ(par_dpor.stats.states, plain.stats.states);
}

// --- Reduction sanity ---------------------------------------------------------

TEST(DporReduction, IndependentWritersCollapseToOneTraceClass) {
  // Three fully independent writers: full exploration visits the 2^3
  // interleaving lattice; DPOR schedules a single trace (all steps
  // commute), so states = path length.
  ProgramBuilder b;
  auto x = b.var("x", 0);
  auto y = b.var("y", 0);
  auto z = b.var("z", 0);
  b.thread({assign(x, 1)});
  b.thread({assign(y, 1)});
  b.thread({assign(z, 1)});
  const lang::Program p = std::move(b).build();

  const auto full = explore(p, seq_options(PorMode::kNone), {});
  const auto dpor = explore(p, seq_options(kDefaultPor), {});
  EXPECT_EQ(full.stats.states, 8u);
  EXPECT_EQ(dpor.stats.states, 4u);  // one linear trace: root + 3 steps
  EXPECT_EQ(dpor.stats.backtracks, 0u);
  EXPECT_EQ(full.stats.finals, 1u);
  EXPECT_EQ(dpor.stats.finals, 1u);
}

// --- RMW-nondeterminism family ------------------------------------------------
//
// Programs whose nondeterminism flows through RMW *data* values rather
// than thread schedules alone: bounded test-and-set lock-acquisition
// loops, an emulated fetch-add race (acquire read + swap of read+1), and
// locations with >= 3 RMW writers. All six mode x parallelism
// combinations must agree on verdict, outcome set, and final-state
// fingerprints.

constexpr int kRmwLoopBound = 2;  ///< bounds the TAS retry loops

constexpr const char* kRmwFamily[] = {
    testing::kRmwTasLock,
    R"(litmus rmw_fadd_race
var x = 0
thread 1 { r := x@A; x.swap(r + 1); }
thread 2 { r := x@A; x.swap(r + 1); }
thread 3 { r := x@A; x.swap(r + 1); }
exists (x == 3)
)",
    R"(litmus rmw_three_swappers
var x = 0
thread 1 { r := x.swap(1); s := x@A; }
thread 2 { r := x.swap(2); s := x@A; }
thread 3 { r := x.swap(3); s := x@A; }
exists (1:r == 3 && x == 1)
)",
    R"(litmus rmw_swap_chain
var x = 0
var y = 0
thread 1 { r := x.swap(1); y := r + 1; }
thread 2 { s := y.swap(2); x := s; }
thread 3 { t := x.swap(3); u := y.swap(4); }
exists (x == 0 && y == 2)
)",
};

ExploreOptions rmw_seq_options(PorMode por, int loop_bound = kRmwLoopBound) {
  ExploreOptions o = seq_options(por);
  o.step.loop_bound = loop_bound;
  return o;
}

ParallelOptions rmw_par_options(PorMode por, int loop_bound = kRmwLoopBound) {
  ParallelOptions o = par_options(por);
  o.explore.step.loop_bound = loop_bound;
  return o;
}

TEST(RmwNondeterminism, AllModesAgreeOnVerdictOutcomesAndFinals) {
  // The TAS lock runs at loop bounds 0-3: the fused searches take the
  // unfoldings each bound allows inside their drains, and must end in the
  // oracle's terminated configurations, unfold counts included. The other
  // members have no loop, so one bound searches them all.
  for (const char* source : kRmwFamily) {
    const auto parsed = lang::parse_litmus(source);
    const auto& p = parsed.program;
    const bool looped = source == testing::kRmwTasLock;
    for (int bound = 0; bound <= (looped ? 3 : 0); ++bound) {
      const std::string tag =
          parsed.name + ", loop bound " + std::to_string(bound);
      const testing::Finals full = testing::finals_by_oracle(
          p, parsed.condition, rmw_seq_options(PorMode::kNone, bound));
      ASSERT_FALSE(full.stats.truncated) << tag;
      const bool expect_verdict = full.reachable;
      const auto& expect_finals = full.fingerprints;
      const auto& expect_outcomes = full.outcomes;
      // At bound 0 no TAS thread gets past its loop: no final exists.
      ASSERT_EQ(expect_finals.empty(), looped && bound == 0) << tag;
      for (const Mode& m : kModes) {
        if (m.parallel) {
          const ParallelOptions o = rmw_par_options(m.por, bound);
          EXPECT_EQ(check_reachable_parallel(p, parsed.condition, o).reachable,
                    expect_verdict)
              << tag << " under " << m.name;
          EXPECT_EQ(collect_final_executions_parallel(p, o), expect_finals)
              << tag << " under " << m.name;
          EXPECT_EQ(enumerate_outcomes_parallel(p, o).outcomes,
                    expect_outcomes)
              << tag << " under " << m.name;
        } else {
          const ExploreOptions o = rmw_seq_options(m.por, bound);
          EXPECT_EQ(check_reachable(p, parsed.condition, o).reachable,
                    expect_verdict)
              << tag << " under " << m.name;
          EXPECT_EQ(collect_final_executions(p, o), expect_finals)
              << tag << " under " << m.name;
          EXPECT_EQ(enumerate_outcomes(p, o).outcomes, expect_outcomes)
              << tag << " under " << m.name;
        }
      }
    }
  }
}

TEST(RmwNondeterminism, ParallelSiblingMergeKeepsAllExecutions) {
  // Work-stealing varies the order in which siblings reach shared nodes:
  // repeated parallel runs of both parallel reductions must keep the full
  // final-state set on the TAS lock — the DPOR engine's per-node
  // backtrack/sleep state, and the parallel explorer's per-state sleep
  // store, whose intersect-and-revisit merge is never first-writer-wins.
  const auto parsed = lang::parse_litmus(kRmwFamily[0]);  // rmw_tas_lock
  const auto expect =
      collect_final_executions(parsed.program, rmw_seq_options(PorMode::kNone));
  for (int round = 0; round < 4; ++round) {
    EXPECT_EQ(collect_final_executions_parallel(parsed.program,
                                                rmw_par_options(kDefaultPor)),
              expect)
        << "round " << round << " under " << por_mode_name(kDefaultPor);
    EXPECT_EQ(collect_final_executions_parallel(
                  parsed.program, rmw_par_options(PorMode::kSleepSets)),
              expect)
        << "round " << round << " under sleep sets";
  }
}

// --- Pinned sequential source-set DPOR counters ---------------------------------
//
// The exact counters of the sequential source-set engine on fixed programs,
// each from a run whose outcomes and final executions equal full
// exploration's. The search depends on the signatures and also on when each
// state's record completes: a revisit stops only at a complete record that
// slept on no more than it does, and replays races from that record's
// summary. So these counts follow the order in which the engine runs its
// items, not the signatures alone. A sequential search runs them in one
// fixed order (last queued, first run), which makes the counts exact; an
// engine that reorders its items may move every one of them without losing
// an execution.

struct PinnedCounters {
  std::size_t states, transitions, finals, complete_traces, backtracks,
      por_pruned, sleep_blocked;
};

void expect_counters(const ExploreStats& s, const PinnedCounters& want,
                     const std::string& what) {
  EXPECT_FALSE(s.truncated) << what;
  EXPECT_EQ(s.states, want.states) << what;
  EXPECT_EQ(s.transitions, want.transitions) << what;
  EXPECT_EQ(s.finals, want.finals) << what;
  EXPECT_EQ(s.complete_traces, want.complete_traces) << what;
  EXPECT_EQ(s.backtracks, want.backtracks) << what;
  EXPECT_EQ(s.por_pruned, want.por_pruned) << what;
  EXPECT_EQ(s.sleep_blocked, want.sleep_blocked) << what;
}

TEST(DporCounters, SourceSetsSleepOnTheShapes) {
  const struct {
    const char* source;
    PinnedCounters want;
  } cases[] = {
      {kIndep4, {1'008, 1'281, 81, 81, 89, 771, 25}},
      {kMixed5, {3'581, 6'532, 512, 1'068, 650, 3'699, 224}},
      {kConflict4, {2'215, 5'212, 360, 1'146, 500, 368, 0}},
  };
  for (const auto& c : cases) {
    const auto parsed = lang::parse_litmus(c.source);
    const auto r =
        explore(parsed.program, seq_options(PorMode::kSourceSetsSleep), {});
    expect_counters(r.stats, c.want, parsed.name);
  }
}

TEST(DporCounters, SourceSetsSleepOnCatalogueAndTasLock) {
  const struct {
    const char* name;
    PinnedCounters want;
  } catalogue[] = {
      {"SB", {13, 15, 4, 6, 2, 1, 0}},
      {"CoRR2", {273, 530, 72, 168, 71, 34, 0}},
      {"IRIW_ra", {79, 113, 16, 30, 18, 35, 1}},
      {"WRC_ra", {31, 39, 7, 11, 7, 6, 0}},
      {"ISA2", {36, 43, 7, 11, 6, 9, 0}},
  };
  for (const auto& c : catalogue) {
    const auto parsed = lang::parse_litmus(litmus::find_test(c.name).source);
    const auto r =
        explore(parsed.program, seq_options(PorMode::kSourceSetsSleep), {});
    expect_counters(r.stats, c.want, c.name);
  }
  const auto tas = lang::parse_litmus(kRmwFamily[0]);  // rmw_tas_lock
  const auto r =
      explore(tas.program, rmw_seq_options(PorMode::kSourceSetsSleep), {});
  // The bound allows two unfoldings per thread, and the drains fuse them.
  expect_counters(r.stats, {1'521, 2'002, 42, 42, 420, 302, 65}, tas.name);
}

// --- The source-set engine's cold paths ------------------------------------------

TEST(DporColdPaths, OnTransitionSeesEveryTransitionWithItsSuccessor) {
  // Under DPOR the hook gets a copy of the parent configuration and the
  // child as the worker's cursor reached it. It must fire once per
  // executed transition, and the child must be the successor that
  // from-scratch enumeration of the parent lists for the same step.
  interp::StepOptions sopts;
  // The engine's scheduling granularity.
  sopts.tau_compress = interp::TauCompress::kFused;
  for (const char* name : {"SB", "IRIW_ra", "WRC_ra", "SwapAtomicity"}) {
    const auto parsed = lang::parse_litmus(litmus::find_test(name).source);
    for (const std::size_t workers : {std::size_t{1}, std::size_t{2}}) {
      std::atomic<std::size_t> fired{0};
      std::atomic<std::size_t> unmatched{0};
      std::atomic<std::size_t> wrong_next{0};
      Visitor v;
      v.on_transition = [&](const interp::Config& pre,
                            const interp::ConfigStep& step) {
        ++fired;
        const interp::ConfigStep* match = nullptr;
        const auto succs = interp::successors(pre, sopts);
        for (const interp::ConfigStep& s : succs) {
          if (s.thread == step.thread && s.silent == step.silent &&
              s.loop_unfold == step.loop_unfold &&
              (s.silent ||
               (s.observed == step.observed && s.action == step.action))) {
            match = &s;
            break;
          }
        }
        if (match == nullptr) {
          ++unmatched;
        } else if (match->next.fingerprint() != step.next.fingerprint()) {
          ++wrong_next;
        }
        return true;
      };
      const auto r = explore_dpor(interp::initial_config(parsed.program),
                                  seq_options(PorMode::kSourceSetsSleep), v,
                                  workers);
      const std::string what =
          std::string(name) + " at " + std::to_string(workers) + " workers";
      EXPECT_GT(r.stats.transitions, 0u) << what;
      EXPECT_EQ(fired.load(), r.stats.transitions) << what;
      EXPECT_EQ(unmatched.load(), 0u) << what;
      EXPECT_EQ(wrong_next.load(), 0u) << what;
    }
  }
}

TEST(DporColdPaths, PreExecutionSearchKeepsTheFinalExecutions) {
  // The source-set engine runs the ==>_RA semantics only; a pre-execution
  // search asked for with it runs under sleep sets, which keep every state.
  const auto search = [](const lang::Program& p, PorMode por) {
    ExploreOptions o;
    o.pre_execution = true;
    o.por = por;
    std::set<util::Fingerprint> finals;
    Visitor v;
    v.on_final = [&](const interp::Config& c) {
      finals.insert(c.exec.fingerprint());
      return true;
    };
    const auto r = explore(p, o, v);
    return std::make_pair(finals, r.stats.states);
  };
  for (const auto& test : litmus::catalog()) {
    const auto parsed = lang::parse_litmus(test.source);
    const auto [por_finals, por_states] = search(parsed.program, kDefaultPor);
    const auto [finals, states] = search(parsed.program, PorMode::kNone);
    EXPECT_FALSE(finals.empty()) << test.name;
    EXPECT_EQ(por_finals, finals) << test.name;
    EXPECT_EQ(por_states, states) << test.name;
  }
}

TEST(DporReduction, ConflictingWritersStillCoverAllFinals) {
  // Same-variable writers conflict pairwise: DPOR must backtrack into
  // every order (3! mo outcomes of the writes are all distinct).
  ProgramBuilder b;
  auto x = b.var("x", 0);
  b.thread({assign(x, 1)});
  b.thread({assign(x, 2)});
  b.thread({assign(x, 3)});
  const lang::Program p = std::move(b).build();

  const auto full = enumerate_outcomes(p, seq_options(PorMode::kNone));
  const auto dpor = enumerate_outcomes(p, seq_options(kDefaultPor));
  EXPECT_EQ(full.outcomes, dpor.outcomes);
  EXPECT_GT(dpor.stats.backtracks, 0u);
}

}  // namespace
}  // namespace rc11::mc
