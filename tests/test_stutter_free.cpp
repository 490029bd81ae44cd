// The drained searches fuse what no invariant can see. The invariant
// queries run stutter-free (interp::TauCompress::kStutterFree): a thread's
// silent steps that keep its pc and its termination, and the loop
// unfoldings the bound allows, fuse into the step before them. The
// argument that this keeps every verdict (src/mc/README.md, "Stutter-free
// invariant search") says the search reaches exactly the *visible parts*
// raw every-step exploration reaches: the execution plus, per thread, the
// pc, the registers and termination. This file checks that claim as a set
// equality, on the litmus catalogue, the .litmus corpus, a seeded fuzz
// slice (with and without labels), Peterson under none and sleep sets,
// two-round Peterson, the test-and-set lock, hand-written programs that
// reach the termination clause and the bound's edge, and the 4-worker
// parallel query. Two-round Peterson at loop bound 5 and up is where a
// rule that compared pcs alone, and not termination, loses visible parts.
//
// The final-state queries and DPOR fuse every silent step and the same
// unfoldings (kFused); their outcomes and final executions are checked
// against testing::finals_by_oracle on Peterson and the hand-written
// programs (the RMW family's in test_dpor.cpp), and their witnesses replay
// with the step options they record. An unbounded search fuses no
// unfolding.
#include <gtest/gtest.h>

#include <cstdlib>
#include <iterator>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "helpers.hpp"
#include "lang/generator.hpp"
#include "lang/parser.hpp"
#include "litmus/catalog.hpp"
#include "litmus/import.hpp"
#include "mc/checker.hpp"
#include "mc/parallel.hpp"
#include "vcgen/peterson.hpp"

namespace rc11 {
namespace {

/// A 128-bit digest of what an invariant may read of a configuration
/// (mc::ConfigPredicate): the execution plus, per thread, the pc, the
/// registers and termination. No unfold count: the drains fuse unfoldings.
util::Fingerprint visible_part(const interp::Config& c) {
  util::FingerprintHasher h;
  c.exec.fingerprint_into(h);
  for (c11::ThreadId t = 1; t <= c.thread_count(); ++t) {
    h.mix_signed(c.pc(t));
    h.mix(c.registers(t).size());
    for (const lang::Value v : c.registers(t)) h.mix_signed(v);
    h.mix(lang::is_terminated(c.continuation(t)) ? 1 : 0);
  }
  return h.finish();
}

using VisibleSet = std::set<util::Fingerprint>;

/// Raw mc::explore at every step, with no reduction: the reference.
VisibleSet by_every_step(const lang::Program& p, mc::ExploreOptions options,
                         std::size_t* states = nullptr) {
  options.por = mc::PorMode::kNone;
  options.step.tau_compress = interp::TauCompress::kEveryStep;
  VisibleSet out;
  mc::Visitor visitor;
  visitor.on_state = [&](const interp::Config& c) {
    out.insert(visible_part(c));
    return true;
  };
  const mc::ExploreResult r = mc::explore(p, options, visitor);
  EXPECT_FALSE(r.stats.truncated);
  if (states != nullptr) *states = r.stats.states;
  return out;
}

/// The invariant query, with an invariant that records what it reads.
VisibleSet by_invariant_query(const lang::Program& p,
                              const mc::ExploreOptions& options,
                              std::size_t* states = nullptr) {
  VisibleSet out;
  const mc::InvariantResult r = mc::check_invariant(
      p,
      [&](const interp::Config& c) {
        out.insert(visible_part(c));
        return true;
      },
      options);
  EXPECT_TRUE(r.holds);
  EXPECT_FALSE(r.stats.truncated);
  if (states != nullptr) *states = r.stats.states;
  return out;
}

VisibleSet by_parallel_query(const lang::Program& p,
                             const mc::ExploreOptions& options,
                             std::size_t workers) {
  VisibleSet out;
  std::mutex mu;
  mc::ParallelOptions popts;
  popts.explore = options;
  popts.workers = workers;
  const mc::InvariantResult r = mc::check_invariant_parallel(
      p,
      [&](const interp::Config& c) {
        const util::Fingerprint v = visible_part(c);
        std::lock_guard lock(mu);
        out.insert(v);
        return true;
      },
      popts);
  EXPECT_TRUE(r.holds);
  EXPECT_FALSE(r.stats.truncated);
  return out;
}

mc::ExploreOptions bounded(int loop_bound,
                           mc::PorMode por = mc::PorMode::kNone) {
  mc::ExploreOptions o;
  o.step.loop_bound = loop_bound;
  o.por = por;
  return o;
}

/// Checks the set equality under no reduction and under sleep sets.
void expect_same_visible_parts(const lang::Program& p, int loop_bound,
                               const std::string& tag) {
  const VisibleSet want = by_every_step(p, bounded(loop_bound));
  for (const mc::PorMode por :
       {mc::PorMode::kNone, mc::PorMode::kSleepSets}) {
    const VisibleSet got = by_invariant_query(p, bounded(loop_bound, por));
    EXPECT_TRUE(got == want)
        << tag << " under " << mc::por_mode_name(por) << ": "
        << got.size() << " visible parts, every-step search " << want.size();
  }
}

TEST(StutterFree, CatalogueReachesEveryVisiblePart) {
  for (const auto& test : litmus::catalog()) {
    expect_same_visible_parts(lang::parse_litmus(test.source).program, 2,
                              test.name);
  }
}

TEST(StutterFree, CorpusReachesEveryVisiblePart) {
  const std::vector<litmus::ImportedTest> corpus =
      litmus::import_path(RC11_CORPUS_DIR);
  ASSERT_GE(corpus.size(), 30u);
  for (const litmus::ImportedTest& test : corpus) {
    expect_same_visible_parts(lang::parse_litmus(test.source).program, 2,
                              test.name);
  }
}

/// Labels every other top-level statement of each thread (lines 1, 3, ...
/// of a thread body), so some silent steps move a pc and some do not.
lang::ComPtr label_lines(const lang::ComPtr& c, int& line) {
  if (c->kind == lang::ComKind::kSeq) {
    lang::ComPtr head = label_lines(c->c1, line);
    return lang::seq(std::move(head), label_lines(c->c2, line));
  }
  const int l = line++;
  return l % 2 == 1 ? lang::labeled(l, c) : c;
}

lang::Program labelled(const lang::Program& p) {
  lang::Program out;
  for (const auto& [x, v] : p.initial_values()) {
    (void)out.declare_var(p.vars().name(x), v);
  }
  for (lang::RegId r = 0; r < p.reg_count(); ++r) {
    (void)out.declare_reg(p.reg_name(r));
  }
  for (c11::ThreadId t = 1; t <= p.thread_count(); ++t) {
    int line = 1;
    (void)out.add_thread(label_lines(p.thread(t), line));
  }
  return out;
}

std::uint32_t fuzz_seed_base() {
  if (const char* env = std::getenv("RC11_FUZZ_SEED")) {
    return static_cast<std::uint32_t>(std::strtoul(env, nullptr, 10));
  }
  return 0x57F7;  // fixed default: failures reproduce across runs
}

TEST(StutterFree, FuzzSliceReachesEveryVisiblePart) {
  const std::uint32_t base = fuzz_seed_base();
  constexpr std::uint32_t kPrograms = 40;
  for (std::uint32_t i = 0; i < kPrograms; ++i) {
    const std::uint32_t seed = base + i;
    lang::GeneratorOptions o;
    o.seed = seed;
    o.threads = 2 + static_cast<int>(i % 2);
    o.stmts_per_thread = 3;
    o.allow_fences = (i % 4) == 3;
    const lang::Program plain = lang::generate_program(o);
    const lang::Program lines = labelled(plain);
    const std::string tag =
        "replay with RC11_FUZZ_SEED=" + std::to_string(seed) + "\n";
    expect_same_visible_parts(plain, 2, tag + plain.to_string());
    expect_same_visible_parts(lines, 2, tag + lines.to_string());
  }
}

TEST(StutterFree, PetersonReachesEveryVisiblePartAtBounds0To4) {
  const lang::Program p = vcgen::make_peterson();
  for (int bound = 0; bound <= 4; ++bound) {
    expect_same_visible_parts(p, bound,
                              "peterson, loop bound " + std::to_string(bound));
  }
}

TEST(StutterFree, PetersonVisitsOneStatePerVisiblePart) {
  // Every stutter and every unfolding below the bound is fused: no two
  // states the search visits share a visible part, so none differ only in
  // a continuation's shape or an unfold count.
  const lang::Program p = vcgen::make_peterson();
  std::size_t states = 0;
  const VisibleSet seen = by_invariant_query(p, bounded(1), &states);
  EXPECT_EQ(states, 110u);
  EXPECT_EQ(seen.size(), states);
  std::size_t every_step_states = 0;
  EXPECT_EQ(by_every_step(p, bounded(1), &every_step_states), seen);
  EXPECT_EQ(every_step_states, 331u);
}

TEST(StutterFree, TwoRoundPetersonReachesEveryVisiblePart) {
  // A guard that resolves into skip at the end of the outer loop keeps
  // pc 0 and terminates the thread: the termination clause keeps that
  // step visible.
  const lang::Program p = vcgen::make_peterson_rounds(2);
  for (int bound = 1; bound <= 7; ++bound) {
    const VisibleSet want = by_every_step(p, bounded(bound));
    const VisibleSet got = by_invariant_query(p, bounded(bound));
    EXPECT_TRUE(got == want)
        << "loop bound " << bound << ": " << got.size()
        << " visible parts, every-step search " << want.size();
  }
}

// --- Hand-written programs: the termination clause and the bound's edge ---

lang::Program tas_lock() {
  return lang::parse_litmus(testing::kRmwTasLock).program;
}

/// Each thread ends in a guard that resolves into `skip` on one branch:
/// that step keeps pc 0 and terminates the thread, so it is no stutter.
lang::Program if_else_skip() {
  return lang::parse_litmus(R"(litmus if_else_skip
var x = 0
var y = 0
thread 1 { x := 1; r := y; if (r == 1) { x := 2; } else { skip; } }
thread 2 { y := 1; s := x; if (s == 0) { y := 2; } else { skip; } }
)")
      .program;
}

/// A loop whose body is silent: thread 1 terminates after exactly
/// kRegLoopUnfoldings unfoldings (two iterations and the exit test), and
/// at any lower bound it is stuck at the loop, short of its write.
constexpr int kRegLoopUnfoldings = 3;
constexpr int kRegLoopBounds[] = {1, 2, kRegLoopUnfoldings};
lang::Program register_loop() {
  return lang::parse_litmus(R"(litmus register_loop
var x = 0
thread 1 { while (r < 2) { r := r + 1; } x := r; }
thread 2 { s := x; x := 5; }
)")
      .program;
}

TEST(StutterFree, TasLockReachesEveryVisiblePartAtBounds0To3) {
  const lang::Program p = tas_lock();
  for (int bound = 0; bound <= 3; ++bound) {
    expect_same_visible_parts(p, bound,
                              "rmw_tas_lock, loop bound " +
                                  std::to_string(bound));
  }
}

TEST(StutterFree, TerminatingGuardReachesEveryVisiblePart) {
  const lang::Program p = if_else_skip();
  expect_same_visible_parts(p, -1, "if_else_skip");
  expect_same_visible_parts(labelled(p), -1, "if_else_skip, labelled");
}

TEST(StutterFree, SilentLoopReachesEveryVisiblePartAtTheBoundsEdge) {
  const lang::Program p = register_loop();
  for (const int bound : kRegLoopBounds) {
    const std::string tag =
        "register_loop, loop bound " + std::to_string(bound);
    expect_same_visible_parts(p, bound, tag);
    expect_same_visible_parts(labelled(p), bound, tag + ", labelled");
  }
}

TEST(StutterFree, ParallelQueryReachesEveryVisiblePart) {
  const lang::Program one_round = vcgen::make_peterson();
  EXPECT_TRUE(by_parallel_query(one_round, bounded(3), 4) ==
              by_every_step(one_round, bounded(3)));
  const lang::Program two_rounds = vcgen::make_peterson_rounds(2);
  EXPECT_TRUE(by_parallel_query(two_rounds, bounded(5), 4) ==
              by_every_step(two_rounds, bounded(5)));
  for (const char* name : {"IRIW_ra", "WRC_ra", "CoRR2"}) {
    const lang::Program p =
        lang::parse_litmus(litmus::find_test(name).source).program;
    EXPECT_TRUE(by_parallel_query(p, bounded(2), 4) ==
                by_every_step(p, bounded(2)))
        << name;
  }
  const lang::Program tas = tas_lock();
  EXPECT_TRUE(by_parallel_query(tas, bounded(3), 4) ==
              by_every_step(tas, bounded(3)));
}

// --- Fused final-state queries ---------------------------------------------

/// The programs of the final-state comparison, with the loop bounds each
/// is searched at. The RMW family, the TAS lock at bounds 0-3 included, is
/// compared in test_dpor.cpp (RmwNondeterminism).
struct Looped {
  std::string name;
  lang::Program program;
  std::vector<int> bounds;
};

std::vector<Looped> looped_programs() {
  const std::vector<int> b0to3 = {0, 1, 2, 3};
  std::vector<Looped> out;
  out.push_back({"peterson", vcgen::make_peterson(), b0to3});
  out.push_back({"peterson, 2 rounds", vcgen::make_peterson_rounds(2), b0to3});
  out.push_back({"if_else_skip", if_else_skip(), {-1}});
  out.push_back({"register_loop", register_loop(),
                 {std::begin(kRegLoopBounds), std::end(kRegLoopBounds)}});
  return out;
}

constexpr mc::PorMode kModes[] = {mc::PorMode::kNone, mc::PorMode::kSleepSets,
                                  mc::kDefaultPor};

TEST(FusedUnfoldings, FinalStateQueriesKeepEveryFinal) {
  // The fused searches take the same unfoldings at the same counts as the
  // every-step oracle, only without the states in between, so every
  // terminated configuration, unfold counts included, is the same.
  for (const Looped& l : looped_programs()) {
    for (const int bound : l.bounds) {
      const testing::Finals want =
          testing::finals_by_oracle(l.program, nullptr, bounded(bound));
      ASSERT_FALSE(want.stats.truncated) << l.name;
      for (const mc::PorMode por : kModes) {
        const std::string tag = l.name + ", loop bound " +
                                std::to_string(bound) + " under " +
                                mc::por_mode_name(por);
        const mc::ExploreOptions o = bounded(bound, por);
        EXPECT_EQ(mc::enumerate_outcomes(l.program, o).outcomes,
                  want.outcomes)
            << tag;
        EXPECT_EQ(mc::collect_final_executions(l.program, o),
                  want.fingerprints)
            << tag;
        mc::ParallelOptions popts;
        popts.explore = o;
        popts.workers = 4;
        EXPECT_EQ(mc::enumerate_outcomes_parallel(l.program, popts).outcomes,
                  want.outcomes)
            << tag << " at 4 workers";
        EXPECT_EQ(mc::collect_final_executions_parallel(l.program, popts),
                  want.fingerprints)
            << tag << " at 4 workers";
      }
    }
  }
}

TEST(FusedUnfoldings, TasLockWitnessesReplayWithTheirStepOptions) {
  // The witnesses' drains fused unfoldings under the search's loop bound;
  // the trace records both, so replay_trace alone fuses exactly the same.
  const lang::ParsedLitmus parsed = lang::parse_litmus(testing::kRmwTasLock);
  for (const mc::PorMode por : kModes) {
    for (const std::size_t workers : {std::size_t{1}, std::size_t{4}}) {
      const std::string tag = std::string(mc::por_mode_name(por)) + " at " +
                              std::to_string(workers) + " workers";
      const mc::ExploreOptions o = bounded(2, por);
      mc::ReachabilityResult r;
      if (workers == 1) {
        r = mc::check_reachable(parsed.program, parsed.condition, o);
      } else {
        mc::ParallelOptions popts;
        popts.explore = o;
        popts.workers = workers;
        r = mc::check_reachable_parallel(parsed.program, parsed.condition,
                                         popts);
      }
      ASSERT_TRUE(r.reachable) << tag;
      EXPECT_EQ(r.witness.step.tau_compress, interp::TauCompress::kFused)
          << tag;
      EXPECT_EQ(r.witness.step.loop_bound, 2) << tag;
      const auto end = mc::replay_trace(parsed.program, r.witness);
      ASSERT_TRUE(end.has_value())
          << tag << " witness does not replay:\n"
          << r.witness.to_string(&parsed.program.vars());
      EXPECT_TRUE(end->terminated()) << tag;
      EXPECT_TRUE(interp::eval_cond(parsed.condition, *end)) << tag;
    }
  }
}

TEST(FusedUnfoldings, UnboundedLoopNeverFuses) {
  // Without a bound no unfolding fuses: each one stays a transition that
  // adds to the thread's unfold count, so the search reaches a new state
  // per unfolding and stops at the state budget instead of spinning in a
  // drain.
  const lang::Program p = lang::parse_litmus(R"(litmus spin
thread 1 { while (r == 0) { skip; } }
)")
                              .program;
  mc::ExploreOptions o;
  o.max_states = 50;
  const mc::InvariantResult inv =
      mc::check_invariant(p, [](const interp::Config&) { return true; }, o);
  EXPECT_TRUE(inv.stats.truncated);
  for (const mc::PorMode por : kModes) {
    o.por = por;
    const mc::OutcomeResult out = mc::enumerate_outcomes(p, o);
    EXPECT_TRUE(out.stats.truncated) << mc::por_mode_name(por);
    EXPECT_TRUE(out.outcomes.empty()) << mc::por_mode_name(por);
  }
}

}  // namespace
}  // namespace rc11
