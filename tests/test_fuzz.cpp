// Fuzz-style property tests: the metatheory checkers swept over randomly
// generated programs (deterministic seeds — failures reproduce). This is
// the widest net over the soundness/completeness/agreement claims:
//
//   for every generated program P:
//     - every RA-reachable state of P is valid            (Theorem 4.4)
//     - axiomatic and operational final sets coincide     (Theorem 4.8)
//     - Def-4.2 Coherence == weak canonical consistency   (Theorem C.15)
//     - no Figure-4 rule instance is unsound              (Appendix B)
//     - canonical-with-release-sequences consistency implies weak
//       canonical consistency                             (Lemma C.4)
//     - determinate values are unique per variable        (Lemma 5.4)
#include <gtest/gtest.h>

#include <cstdlib>

#include "axiomatic/equivalence.hpp"
#include "c11/canonical.hpp"
#include "c11/races.hpp"
#include "helpers.hpp"
#include "lang/generator.hpp"
#include "mc/parallel.hpp"
#include "vcgen/invariant.hpp"

namespace rc11 {
namespace {

lang::GeneratorOptions small_options(std::uint32_t seed) {
  lang::GeneratorOptions o;
  o.seed = seed;
  o.threads = 2;
  o.vars = 2;
  o.max_value = 1;
  o.stmts_per_thread = 2;
  return o;
}

class FuzzTest : public ::testing::TestWithParam<std::uint32_t> {
 protected:
  lang::Program program() { return generate_program(small_options(GetParam())); }
};

TEST_P(FuzzTest, Soundness) {
  const lang::Program p = program();
  const axiomatic::SoundnessResult r = axiomatic::check_soundness(p);
  EXPECT_TRUE(r.sound) << p.to_string() << "violated: " << r.violation;
}

TEST_P(FuzzTest, Completeness) {
  const lang::Program p = program();
  const axiomatic::CompletenessResult r = axiomatic::check_completeness(p);
  EXPECT_TRUE(r.equivalent())
      << p.to_string() << "op=" << r.operational_count
      << " ax=" << r.axiomatic_count;
}

TEST_P(FuzzTest, CoherenceAgreement) {
  const lang::Program p = program();
  const axiomatic::AgreementResult r =
      axiomatic::check_coherence_agreement(p);
  EXPECT_TRUE(r.agree) << p.to_string() << r.first_disagreement;
}

TEST_P(FuzzTest, RuleSoundness) {
  const lang::Program p = program();
  const vcgen::RuleSoundnessResult r = vcgen::check_rule_soundness(p);
  EXPECT_EQ(r.unsound, 0u) << p.to_string() << r.first_unsound;
}

TEST_P(FuzzTest, CanonicalRsImpliesWeak) {
  const lang::Program p = program();
  mc::Visitor v;
  v.on_state = [&](const interp::Config& c) {
    if (c11::check_canonical_with_release_sequences(c.exec).consistent()) {
      EXPECT_TRUE(c11::check_weak_canonical(c.exec).consistent());
    }
    return true;
  };
  (void)mc::explore(p, {}, v);
}

TEST_P(FuzzTest, DeterminateValuesUnique) {
  const lang::Program p = program();
  mc::Visitor v;
  v.on_state = [&](const interp::Config& c) {
    const auto d = c11::compute_derived(c.exec);
    for (c11::VarId x = 0; x < c.exec.var_count(); ++x) {
      std::optional<lang::Value> seen;
      for (c11::ThreadId t = 1; t <= c.thread_count(); ++t) {
        if (auto val = vcgen::determinate_value_of(c.exec, d, t, x)) {
          if (seen) { EXPECT_EQ(*seen, *val) << p.to_string(); }
          seen = val;
        }
      }
    }
    return true;
  };
  (void)mc::explore(p, {}, v);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzTest, ::testing::Range(0u, 24u));

// --- NA-enabled fuzzing ---------------------------------------------------------

class NaFuzzTest : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(NaFuzzTest, RaceCheckerAndSoundnessDoNotInterfere) {
  lang::GeneratorOptions o = small_options(GetParam());
  o.allow_nonatomic = true;
  const lang::Program p = generate_program(o);
  // The race verdict matches the from-scratch oracle; soundness of the
  // rf/mo layer is independent of atomicity annotations.
  const mc::RaceResult race = mc::check_race_free(p);
  EXPECT_EQ(race.race_free, !testing::racy_by_oracle(p))
      << p.to_string() << race.race;
  const axiomatic::SoundnessResult sound = axiomatic::check_soundness(p);
  EXPECT_TRUE(sound.sound) << p.to_string();
}

INSTANTIATE_TEST_SUITE_P(Seeds, NaFuzzTest, ::testing::Range(0u, 12u));

// --- Wider programs (3 threads): soundness + rules only (completeness
// enumeration grows factorially and is covered by the small family) -----------

class WideFuzzTest : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(WideFuzzTest, SoundnessAndRules) {
  lang::GeneratorOptions o;
  o.seed = GetParam();
  o.threads = 3;
  o.vars = 2;
  o.max_value = 1;
  o.stmts_per_thread = 2;
  const lang::Program p = generate_program(o);

  const axiomatic::SoundnessResult sound = axiomatic::check_soundness(p);
  EXPECT_TRUE(sound.sound) << p.to_string() << sound.violation;

  const vcgen::RuleSoundnessResult rules = vcgen::check_rule_soundness(p);
  EXPECT_EQ(rules.unsound, 0u) << p.to_string() << rules.first_unsound;
}

INSTANTIATE_TEST_SUITE_P(Seeds, WideFuzzTest, ::testing::Range(100u, 110u));

// --- DPOR differential fuzz oracle --------------------------------------------
//
// POR bugs are silently missed executions, so the source-set DPOR layer is
// cross-checked against full exploration on a family of >= 200 generated
// programs per run (2-4 threads, mixed relaxed/release/acquire orders,
// RMWs, non-atomic accesses on a third of the seeds, SC accesses on a
// fifth, and acq/rel/SC fences on a seventh — the full-RC11 surface, so
// the fence/SC independence clauses and the per-step psc filter face the
// same differential oracle as the classic clauses). Outcome sets,
// final-execution fingerprints and race verdicts must coincide in every
// mode; a failing seed prints as "replay with RC11_FUZZ_SEED=<N>"
// together with the program text.

std::uint32_t fuzz_seed_base() {
  if (const char* env = std::getenv("RC11_FUZZ_SEED")) {
    return static_cast<std::uint32_t>(std::strtoul(env, nullptr, 10));
  }
  return 0xD0B0;  // fixed default: failures reproduce across runs
}

TEST(DporFuzz, DporAgreesWithFullExplorationOn200Programs) {
  const std::uint32_t base = fuzz_seed_base();
  constexpr std::uint32_t kPrograms = 200;
  for (std::uint32_t i = 0; i < kPrograms; ++i) {
    const std::uint32_t seed = base + i;
    lang::GeneratorOptions o;
    o.seed = seed;
    // Mostly 2-3 threads (cheap, contention-heavy); every 8th seed runs 4
    // threads with a third variable — stateless DPOR trades tree
    // re-exploration time for its state reduction, and all-conflicting
    // 4-thread programs sit at the worst end of that trade.
    o.threads = i % 8 == 7 ? 4 : 2 + static_cast<int>(i % 2);
    o.vars = o.threads == 4 ? 3 : 2;
    o.max_value = 1;
    o.stmts_per_thread = o.threads == 2 ? 3 : 2;
    o.allow_nonatomic = (i % 3) == 1;
    o.allow_sc = (i % 5) == 2;
    o.allow_fences = (i % 7) == 3;
    const lang::Program p = generate_program(o);
    const std::string tag =
        "replay with RC11_FUZZ_SEED=" + std::to_string(seed) + "\n" +
        p.to_string();

    const auto full_out = mc::enumerate_outcomes(p);
    const auto full_fps = mc::collect_final_executions(p);
    ASSERT_FALSE(full_out.stats.truncated) << tag;

    const bool small = o.threads < 4;
    for (const mc::PorMode por :
         {mc::PorMode::kSourceSets, mc::PorMode::kSourceSetsSleep,
          mc::PorMode::kOptimal, mc::PorMode::kOptimalParsimonious}) {
      // The pure source-set mode (no sleep filter) re-explores the most;
      // exercise it on the small programs only.
      if (por == mc::PorMode::kSourceSets && !small) continue;
      mc::ExploreOptions dopts;
      dopts.por = por;
      const auto dpor_out = mc::enumerate_outcomes(p, dopts);
      EXPECT_EQ(dpor_out.outcomes, full_out.outcomes) << tag;
      EXPECT_EQ(mc::collect_final_executions(p, dopts), full_fps) << tag;
      // DPOR visits a subset of the reachable states.
      EXPECT_LE(dpor_out.stats.states, full_out.stats.states) << tag;
      // Regression guards on the wakeup-tree engine. With exploration
      // keyed on reads-from choices no execution may ever start only to
      // die in the sleep filter — sleep_blocked is strictly zero on
      // every generated program (the doomed-subtree stop closes the
      // RMW-data-nondeterminism tail the classical no-blocking theorem
      // does not cover). Transition counts are bounded within a small
      // factor of stateless source-set DPOR rather than strictly:
      // signature-keyed classes identify a write by its mo-insertion
      // point *at execution time*, so two orderings reaching the same
      // final execution can be distinct classes, and the engines' trace
      // representatives share tree prefixes differently (strict bounds
      // hold across the litmus catalogue; see tests/test_dpor.cpp).
      if (mc::is_optimal_dpor(por) && small) {
        mc::ExploreOptions sopts;
        sopts.por = mc::PorMode::kSourceSets;
        const auto src = mc::explore(p, sopts, {});
        const auto opt = mc::explore(p, dopts, {});
        EXPECT_LE(opt.stats.transitions,
                  src.stats.transitions + src.stats.transitions / 4)
            << tag;
        EXPECT_EQ(opt.stats.sleep_blocked, 0u) << tag;
      }
    }

    // Race verdicts against the from-scratch oracle (NA seeds only:
    // atomic-only programs never race). The race query runs on the same
    // spine as outcome enumeration, so every NA seed is checked, the
    // 4-thread ones included.
    if (o.allow_nonatomic) {
      const bool full_race_free = !testing::racy_by_oracle(p);
      EXPECT_EQ(mc::check_race_free(p).race_free, full_race_free) << tag;
      for (const mc::PorMode por : {mc::kDefaultPor, mc::PorMode::kOptimal}) {
        mc::ExploreOptions dopts;
        dopts.por = por;
        EXPECT_EQ(mc::check_race_free(p, dopts).race_free, full_race_free)
            << tag;
      }
    }

    // Work-stealing tree engines on a quarter of the seeds each
    // (thread-pool setup dominates these tiny state spaces; agreement is
    // what matters): source-DPOR+sleep on i % 4 == 0, optimal wakeup
    // trees on i % 4 == 2.
    if (i % 2 == 0) {
      mc::ParallelOptions popts;
      popts.explore.por =
          i % 4 == 0 ? mc::kDefaultPor : mc::PorMode::kOptimal;
      popts.workers = 4;
      EXPECT_EQ(mc::enumerate_outcomes_parallel(p, popts).outcomes,
                full_out.outcomes)
          << tag;
      EXPECT_EQ(mc::collect_final_executions_parallel(p, popts), full_fps)
          << tag;
    }
  }
}

// --- SC/fence-enabled metatheory fuzzing -------------------------------------
//
// The SC story rests on two claims the conformance corpus can only spot-
// check: the per-step psc filter is sound (every reachable state stays
// valid under the Sc axiom) and complete (no RC11-consistent execution is
// operationally lost). The axiomatic enumerator validates both across
// generated programs with SC accesses and the full fence surface.

class ScFuzzTest : public ::testing::TestWithParam<std::uint32_t> {
 protected:
  lang::Program program() {
    lang::GeneratorOptions o = small_options(GetParam());
    o.allow_sc = true;
    o.allow_fences = true;
    return generate_program(o);
  }
};

TEST_P(ScFuzzTest, Soundness) {
  const lang::Program p = program();
  const axiomatic::SoundnessResult r = axiomatic::check_soundness(p);
  EXPECT_TRUE(r.sound) << p.to_string() << "violated: " << r.violation;
}

TEST_P(ScFuzzTest, Completeness) {
  const lang::Program p = program();
  const axiomatic::CompletenessResult r = axiomatic::check_completeness(p);
  EXPECT_TRUE(r.equivalent())
      << p.to_string() << "op=" << r.operational_count
      << " ax=" << r.axiomatic_count;
}

INSTANTIATE_TEST_SUITE_P(Seeds, ScFuzzTest, ::testing::Range(200u, 216u));

// --- Generator sanity -------------------------------------------------------------

TEST(Generator, DeterministicInSeed) {
  const lang::Program a = generate_program(small_options(7));
  const lang::Program b = generate_program(small_options(7));
  EXPECT_EQ(a.to_string(), b.to_string());
}

TEST(Generator, DifferentSeedsDiffer) {
  // Not guaranteed pairwise, but across a few seeds at least two programs
  // must differ.
  std::set<std::string> texts;
  for (std::uint32_t s = 0; s < 8; ++s) {
    texts.insert(generate_program(small_options(s)).to_string());
  }
  EXPECT_GT(texts.size(), 1u);
}

TEST(Generator, EmitsScAndFencesWhenAllowed) {
  // Across a handful of seeds the SC/fence-enabled generator must actually
  // produce SC accesses and fences (scan_sc_features is the same scan the
  // interpreter keys its psc filtering and cache bypass on).
  bool saw_sc = false;
  bool saw_fence = false;
  for (std::uint32_t s = 0; s < 16 && !(saw_sc && saw_fence); ++s) {
    lang::GeneratorOptions o = small_options(s);
    o.allow_sc = true;
    o.allow_fences = true;
    o.stmts_per_thread = 4;
    const lang::ScFeatures f =
        lang::scan_sc_features(generate_program(o));
    saw_sc = saw_sc || f.has_sc;
    saw_fence = saw_fence || f.has_fence;
  }
  EXPECT_TRUE(saw_sc);
  EXPECT_TRUE(saw_fence);
  // And with the flags off, never.
  for (std::uint32_t s = 0; s < 8; ++s) {
    const lang::ScFeatures f =
        lang::scan_sc_features(generate_program(small_options(s)));
    EXPECT_FALSE(f.has_sc);
    EXPECT_FALSE(f.has_fence);
  }
}

TEST(Generator, RespectsFeatureFlags) {
  lang::GeneratorOptions o = small_options(3);
  o.allow_swap = false;
  o.allow_if = false;
  o.stmts_per_thread = 4;
  const lang::Program p = generate_program(o);
  for (c11::ThreadId t = 1; t <= p.thread_count(); ++t) {
    std::function<void(const lang::ComPtr&)> walk =
        [&](const lang::ComPtr& c) {
          EXPECT_NE(c->kind, lang::ComKind::kSwap);
          EXPECT_NE(c->kind, lang::ComKind::kIf);
          if (c->c1) walk(c->c1);
          if (c->c2) walk(c->c2);
        };
    walk(p.thread(t));
  }
}

}  // namespace
}  // namespace rc11
