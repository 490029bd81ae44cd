// Conformance suite over the herd-style .litmus corpus (tests/corpus/):
// the third differential oracle of the ISSUE. Every corpus program is a
// classic published test (SB, MP, LB, IRIW, R, S, 2+2W, WRC, ISA2,
// coherence shapes) with and without fences/SC, annotated with its
// RC11 verdict (`exists` = allowed, `~exists` = forbidden).
//
// For each program, three independent layers must agree with the
// annotation and with each other:
//
//   * all 6 explorer combos — {sequential, parallel} x {full, sleep
//     sets, source-DPOR+sleep} — on the verdict, the outcome set and the
//     final-execution fingerprints (POR bugs are silently missed
//     executions; fences/SC exercise independence clauses the built-in
//     catalogue never reaches);
//   * the axiomatic enumerator: operational and axiomatic final-execution
//     sets coincide (completeness/soundness, now including the Sc axiom).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <string>
#include <vector>

#include "axiomatic/equivalence.hpp"
#include "lang/parser.hpp"
#include "litmus/import.hpp"
#include "mc/checker.hpp"
#include "mc/parallel.hpp"

namespace rc11 {
namespace {

const std::vector<litmus::ImportedTest>& corpus() {
  static const std::vector<litmus::ImportedTest>* tests = [] {
    auto* out = new std::vector<litmus::ImportedTest>();
    try {
      *out = litmus::import_path(RC11_CORPUS_DIR);
    } catch (const litmus::ImportError&) {
      // Left empty; CorpusLoads reports the failure with the message.
    }
    return out;
  }();
  return *tests;
}

TEST(Corpus, Loads) {
  try {
    const auto tests = litmus::import_path(RC11_CORPUS_DIR);
    EXPECT_GE(tests.size(), 30u)
        << "conformance corpus shrank below the ISSUE floor";
  } catch (const litmus::ImportError& e) {
    FAIL() << "corpus import failed: " << e.what();
  }
}

struct Mode {
  const char* name;
  mc::PorMode por;
  bool parallel;
};

constexpr Mode kModes[] = {
    {"seq-full", mc::PorMode::kNone, false},
    {"seq-sleep", mc::PorMode::kSleepSets, false},
    {"seq-dpor-sleep", mc::PorMode::kSourceSetsSleep, false},
    {"par-full", mc::PorMode::kNone, true},
    {"par-sleep", mc::PorMode::kSleepSets, true},
    {"par-dpor-sleep", mc::PorMode::kSourceSetsSleep, true},
};

class ConformanceTest : public ::testing::TestWithParam<std::size_t> {
 protected:
  const litmus::ImportedTest& test() const { return corpus()[GetParam()]; }
};

TEST_P(ConformanceTest, SixCombosMatchTheAnnotation) {
  const litmus::ImportedTest& t = test();
  const lang::ParsedLitmus parsed = lang::parse_litmus(t.source);
  const bool expect_reachable =
      t.expected == litmus::Expectation::kAllowed;

  const mc::OutcomeResult full = mc::enumerate_outcomes(parsed.program);
  const auto full_fps = mc::collect_final_executions(parsed.program);
  ASSERT_FALSE(full.stats.truncated) << t.name;

  for (const Mode& m : kModes) {
    if (m.parallel) {
      mc::ParallelOptions po;
      po.explore.por = m.por;
      po.workers = 4;
      EXPECT_EQ(mc::check_reachable_parallel(parsed.program,
                                             parsed.condition, po)
                    .reachable,
                expect_reachable)
          << t.name << " under " << m.name;
      EXPECT_EQ(mc::enumerate_outcomes_parallel(parsed.program, po).outcomes,
                full.outcomes)
          << t.name << " under " << m.name;
      EXPECT_EQ(mc::collect_final_executions_parallel(parsed.program, po),
                full_fps)
          << t.name << " under " << m.name;
    } else {
      mc::ExploreOptions o;
      o.por = m.por;
      EXPECT_EQ(
          mc::check_reachable(parsed.program, parsed.condition, o).reachable,
          expect_reachable)
          << t.name << " under " << m.name;
      EXPECT_EQ(mc::enumerate_outcomes(parsed.program, o).outcomes,
                full.outcomes)
          << t.name << " under " << m.name;
      EXPECT_EQ(mc::collect_final_executions(parsed.program, o), full_fps)
          << t.name << " under " << m.name;
    }
  }
}

TEST_P(ConformanceTest, AxiomaticEnumeratorAgrees) {
  const litmus::ImportedTest& t = test();
  const lang::ParsedLitmus parsed = lang::parse_litmus(t.source);
  const axiomatic::CompletenessResult r =
      axiomatic::check_completeness(parsed.program);
  EXPECT_TRUE(r.equivalent())
      << t.name << ": operational=" << r.operational_count
      << " axiomatic=" << r.axiomatic_count;
}

std::string case_name(const ::testing::TestParamInfo<std::size_t>& info) {
  std::string n = corpus()[info.param].name;
  std::replace_if(
      n.begin(), n.end(),
      [](char c) { return std::isalnum(static_cast<unsigned char>(c)) == 0; },
      '_');
  return n;
}

INSTANTIATE_TEST_SUITE_P(Corpus, ConformanceTest,
                         ::testing::Range<std::size_t>(0, corpus().size()),
                         case_name);

}  // namespace
}  // namespace rc11
