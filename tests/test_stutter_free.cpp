// The invariant queries search stutter-free: a thread's silent steps that
// keep its pc and its termination fuse into the step before them
// (interp::TauCompress::kStutterFree). The argument that this keeps every
// verdict (src/mc/README.md, "Stutter-free invariant search") says the
// search reaches exactly the *visible parts* raw every-step exploration
// reaches: the execution plus, per thread, the pc, the registers, the
// unfold count and termination. This file checks that claim as a set
// equality, on the litmus catalogue, the .litmus corpus, a seeded fuzz
// slice (with and without labels), Peterson under none and sleep sets,
// two-round Peterson, and the 4-worker parallel query. Two-round Peterson
// at loop bound 5 and up is where a rule that compared pcs alone, and not
// termination, loses visible parts.
#include <gtest/gtest.h>

#include <cstdlib>
#include <mutex>
#include <set>
#include <string>
#include <vector>

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
/// registers, the unfold count and termination.
util::Fingerprint visible_part(const interp::Config& c) {
  util::FingerprintHasher h;
  c.exec.fingerprint_into(h);
  for (c11::ThreadId t = 1; t <= c.thread_count(); ++t) {
    h.mix_signed(c.pc(t));
    h.mix(c.registers(t).size());
    for (const lang::Value v : c.registers(t)) h.mix_signed(v);
    h.mix_signed(c.unfoldings[t - 1]);
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

TEST(StutterFree, PetersonReachesEveryVisiblePartAtBounds0To3) {
  const lang::Program p = vcgen::make_peterson();
  for (int bound = 0; bound <= 3; ++bound) {
    expect_same_visible_parts(p, bound,
                              "peterson, loop bound " + std::to_string(bound));
  }
}

TEST(StutterFree, PetersonVisitsOneStatePerVisiblePart) {
  // Every stutter is fused: no two states the search visits share a
  // visible part, so none differ only in a continuation's shape.
  const lang::Program p = vcgen::make_peterson();
  std::size_t states = 0;
  const VisibleSet seen = by_invariant_query(p, bounded(1), &states);
  EXPECT_EQ(states, 144u);
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
  for (int bound : {1, 3, 5, 7}) {
    const VisibleSet want = by_every_step(p, bounded(bound));
    const VisibleSet got = by_invariant_query(p, bounded(bound));
    EXPECT_TRUE(got == want)
        << "loop bound " << bound << ": " << got.size()
        << " visible parts, every-step search " << want.size();
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
}

}  // namespace
}  // namespace rc11
