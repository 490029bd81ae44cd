// Differential oracle for the incremental semantics engine.
//
// The exploration hot path maintains derived state incrementally:
// Execution::push_event extends cached hb / eco relations, per-thread
// encountered sets, the covered set and the commutative fingerprint lanes
// per appended event, and pop_event undoes the append exactly;
// interp::enumerate_steps / apply_step / undo_step drive one spine Config
// through the search. Every one of those quantities has a from-scratch
// oracle (compute_derived, encountered_writes, covered_writes,
// fingerprint_uncached, successors). This test walks the transition tree
// of every litmus-catalogue program, the SC and fence programs of
// tests/corpus/, a >= 200-program fuzz sweep and an SC/fence slice of it
// (RC11_FUZZ_SEED replay) and asserts, at every node and after every
// undo on the way back up:
//
//   * cached hb == (sb u sw)+ recomputed by closure;
//   * cached eco == (fr u mo u rf)+ recomputed by closure;
//   * cached encountered / observable / covered sets == the Section 3.2
//     oracles, for every thread;
//   * the incremental fingerprint == the from-scratch fingerprint;
//   * the canonical ids push_event maintains, as step signatures read
//     them (mc::maintained_canonical_id), == interp::canonical_event_ids
//     for every event, and every step's mc::sigs_of signature == the one
//     built from the from-scratch ids;
//   * enumerate_steps lists exactly the successors() transitions, in
//     order, and apply_step reaches a configuration with the same
//     canonical key and fingerprint as the materialized successor. On SC
//     programs this pits enumerate_steps' Sc filter
//     (c11::sc_ok_after_push) against the from-scratch check_sc that
//     successors() keeps;
//   * undo_step restores the previous canonical key / fingerprint and the
//     caches still match the oracles (undo/redo sequences stay exact —
//     each sibling subtree is an apply/undo cycle at its node).
//
// A long single descent (600+ events) checks the same caches every 16
// levels, past the sizes where relation rows leave their inline words and
// turn sparse.
//
// A second walk pushes every candidate step *before* the Sc filter at
// every state of the SC and fence programs and asserts that
// sc_ok_after_push agrees with check_sc, rejections included.
#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "c11/axioms.hpp"
#include "c11/derived.hpp"
#include "c11/observability.hpp"
#include "interp/config.hpp"
#include "lang/generator.hpp"
#include "lang/parser.hpp"
#include "litmus/catalog.hpp"
#include "litmus/import.hpp"
#include "mc/independence.hpp"

namespace rc11 {
namespace {

/// Asserts every cached quantity of c.exec against its from-scratch oracle.
void check_cache(interp::Config& c, const std::string& tag) {
  c11::Execution& ex = c.exec;
  ex.ensure_cache();
  const c11::DerivedRelations d = c11::compute_derived(ex);

  ASSERT_EQ(ex.cached_hb(), d.hb) << tag;
  ASSERT_EQ(ex.cached_eco(), d.eco) << tag;
  ASSERT_EQ(ex.cached_covered(), c11::covered_writes(ex)) << tag;

  // One thread beyond max_thread: a thread that has not acted must report
  // an empty encountered set, like the oracle.
  for (c11::ThreadId t = 0; t <= ex.max_thread() + 1; ++t) {
    ASSERT_EQ(ex.cached_encountered(t), c11::encountered_writes(ex, d, t))
        << tag << " thread " << t;
    ASSERT_EQ(ex.cached_thread_events(t), ex.events_of(t))
        << tag << " thread " << t;

    // Observable writes exactly as enumerate_steps derives them from the
    // cached encountered set.
    util::Bitset from_cache(ex.size());
    const util::Bitset& ew = ex.cached_encountered(t);
    ex.writes().for_each([&](std::size_t w) {
      if (ex.mo().row(w).disjoint(ew)) from_cache.set(w);
    });
    ASSERT_EQ(from_cache, c11::observable_writes(ex, d, t))
        << tag << " thread " << t;
  }
  for (c11::VarId x = 0; x < ex.var_count(); ++x) {
    ASSERT_EQ(ex.cached_var_writes(x), ex.writes_on(x)) << tag << " var "
                                                        << x;
  }

  ASSERT_EQ(ex.fingerprint(), ex.fingerprint_uncached()) << tag;
}

/// Walks the transition tree depth-first through the incremental engine,
/// cross-checking against the materialized successors() oracle at every
/// node and after every undo. `budget` caps the visited node count.
void walk(interp::Config& c, const interp::StepOptions& opts,
          std::size_t& budget, const std::string& tag) {
  if (budget == 0) return;
  --budget;

  check_cache(c, tag);
  if (::testing::Test::HasFatalFailure()) return;

  std::vector<interp::Step> steps;
  interp::enumerate_steps(c, opts, steps);
  std::vector<interp::ConfigStep> oracle = interp::successors(c, opts);
  ASSERT_EQ(steps.size(), oracle.size()) << tag;

  // Step signatures read the maintained canonical ids; the from-scratch
  // ids are their oracle.
  const std::vector<interp::CanonicalEventId> cids =
      interp::canonical_event_ids(c.exec);
  const std::vector<std::uint64_t>* packed = c.exec.cids_if_cached();
  ASSERT_NE(packed, nullptr) << tag;
  for (c11::EventId e = 0; e < c.exec.size(); ++e) {
    ASSERT_EQ(mc::maintained_canonical_id(c.exec, *packed, e), cids[e])
        << tag << " event " << e;
  }
  std::vector<mc::StepSig> sigs;
  mc::sigs_of(steps, c.exec, sigs, c.has_sc_fence);
  ASSERT_EQ(sigs.size(), steps.size()) << tag;
  const auto oracle_cid = [&](c11::EventId w) { return cids[w]; };
  for (std::size_t i = 0; i < steps.size(); ++i) {
    ASSERT_EQ(sigs[i], mc::sig_of(steps[i], oracle_cid, c.has_sc_fence))
        << tag << " step " << i;
  }

  const util::Fingerprint fp_before = c.fingerprint();
  const std::string key_before = c.canonical_key();

  interp::StepUndo undo;
  for (std::size_t i = 0; i < steps.size(); ++i) {
    ASSERT_EQ(steps[i].thread, oracle[i].thread) << tag;
    ASSERT_EQ(steps[i].silent, oracle[i].silent) << tag;
    ASSERT_EQ(steps[i].loop_unfold, oracle[i].loop_unfold) << tag;
    if (!steps[i].silent) {
      ASSERT_EQ(steps[i].observed, oracle[i].observed) << tag;
      ASSERT_EQ(steps[i].action, oracle[i].action) << tag;
    }

    const c11::EventId ev = interp::apply_step(c, steps[i], opts, undo);
    ASSERT_EQ(ev, oracle[i].event) << tag;
    // apply_step reaches the materialized successor exactly (isomorphic
    // configuration: same canonical key, same fingerprint).
    ASSERT_EQ(c.canonical_key(), oracle[i].next.canonical_key()) << tag;
    ASSERT_EQ(c.fingerprint(), oracle[i].next.fingerprint()) << tag;

    walk(c, opts, budget, tag);
    interp::undo_step(c, undo);
    if (::testing::Test::HasFatalFailure()) return;

    // Undo restores the configuration bit for bit, caches included.
    ASSERT_EQ(c.fingerprint(), fp_before) << tag << " after undo";
    ASSERT_EQ(c.canonical_key(), key_before) << tag << " after undo";
  }

  // Redo determinism at this node: after the sibling apply/undo cycles
  // above, the caches still agree with the from-scratch oracles.
  check_cache(c, tag + " after undo/redo");
}

void walk_program(const lang::Program& p, std::size_t budget,
                  const std::string& tag) {
  for (const bool tau : {false, true}) {
    interp::StepOptions opts;
    opts.loop_bound = 2;
    opts.tau_compress = tau;
    interp::Config c = interp::initial_config(p);
    std::size_t b = budget;
    walk(c, opts, b, tag + (tau ? " [tau]" : " [plain]"));
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(Incremental, LitmusCatalogueAgreesWithOracleAtEveryStep) {
  for (const auto& test : litmus::catalog()) {
    const auto parsed = lang::parse_litmus(test.source);
    walk_program(parsed.program, /*budget=*/300, test.name);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

std::uint32_t fuzz_seed_base() {
  if (const char* env = std::getenv("RC11_FUZZ_SEED")) {
    return static_cast<std::uint32_t>(std::strtoul(env, nullptr, 10));
  }
  return 0xD0B0;  // fixed default: failures reproduce across runs
}

TEST(Incremental, FuzzSweepAgreesWithOracleOn200Programs) {
  const std::uint32_t base = fuzz_seed_base();
  constexpr std::uint32_t kPrograms = 200;
  for (std::uint32_t i = 0; i < kPrograms; ++i) {
    const std::uint32_t seed = base + i;
    lang::GeneratorOptions o;
    o.seed = seed;
    o.threads = 2 + static_cast<int>(i % 2);
    o.vars = 2;
    o.max_value = 1;
    o.stmts_per_thread = 2;
    o.allow_nonatomic = (i % 3) == 1;
    const lang::Program p = generate_program(o);
    const std::string tag =
        "replay with RC11_FUZZ_SEED=" + std::to_string(seed) + "\n" +
        p.to_string();
    walk_program(p, /*budget=*/80, tag);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(Incremental, LongDescentPastRowStorageThresholdsAgreesWithOracle) {
  // Every other program here stays at or under 128 events, so no push or
  // pop there crosses the Bitset row boundaries: 128 elements (inline
  // words to heap) and 512 (dense to sparse). One generated straight-line
  // program long enough for a single descent to pass 600 events; the
  // caches are checked against the from-scratch oracles every 16 levels on
  // the way down and again on the way back up, where the fingerprint must
  // also equal the one recorded at that level on the way down. The
  // enumerated steps are checked against successors() every 64 levels (at
  // this size one successors() call costs as much as four cache checks).
  // A fixed draw: thread lengths are random, and this seed gives the
  // three threads 644 statements (one event each) in all.
  lang::GeneratorOptions o;
  o.seed = 3;
  o.threads = 3;
  o.vars = 3;
  o.max_value = 2;
  o.stmts_per_thread = 300;
  o.allow_if = false;
  o.allow_fences = true;
  const lang::Program p = generate_program(o);
  const std::string tag = "long descent";
  constexpr std::size_t kEvery = 16;
  constexpr std::size_t kStepsEvery = 64;

  const interp::StepOptions opts;
  interp::Config c = interp::initial_config(p);
  std::mt19937 rng(o.seed);
  std::vector<interp::StepUndo> undo;
  std::vector<util::Fingerprint> fps;
  std::vector<interp::Step> steps;
  for (std::size_t d = 0;; ++d) {
    fps.push_back(c.fingerprint());
    interp::enumerate_steps(c, opts, steps);
    if (d % kEvery == 0) {
      const std::string at = tag + " down at depth " + std::to_string(d);
      check_cache(c, at);
      if (::testing::Test::HasFatalFailure()) return;
    }
    if (d % kStepsEvery == 0) {
      const std::string at = tag + " steps at depth " + std::to_string(d);
      const std::vector<interp::ConfigStep> oracle =
          interp::successors(c, opts);
      ASSERT_EQ(steps.size(), oracle.size()) << at;
      for (std::size_t i = 0; i < steps.size(); ++i) {
        ASSERT_EQ(steps[i].thread, oracle[i].thread) << at;
        if (!steps[i].silent) {
          ASSERT_EQ(steps[i].observed, oracle[i].observed) << at;
          ASSERT_EQ(steps[i].action, oracle[i].action) << at;
        }
      }
    }
    if (steps.empty()) break;
    undo.emplace_back();
    (void)interp::apply_step(c, steps[rng() % steps.size()], opts,
                             undo.back());
  }
  ASSERT_TRUE(c.terminated()) << tag;
  ASSERT_GT(c.exec.size(), 600u) << tag;

  for (std::size_t d = undo.size(); d-- > 0;) {
    interp::undo_step(c, undo[d]);
    ASSERT_EQ(c.fingerprint(), fps[d]) << tag << " up at depth " << d;
    if (d % kEvery == 0) {
      check_cache(c, tag + " up at depth " + std::to_string(d));
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

/// The programs of tests/corpus/ with an SC access or a fence: the ones on
/// which enumerate_steps runs the Sc filter or fence-mediated hb.
std::vector<std::pair<std::string, lang::Program>> sc_and_fence_corpus() {
  std::vector<std::pair<std::string, lang::Program>> out;
  for (const litmus::ImportedTest& t : litmus::import_path(RC11_CORPUS_DIR)) {
    lang::Program p = lang::parse_litmus(t.source).program;
    const lang::ScFeatures f = lang::scan_sc_features(p);
    if (f.has_sc || f.has_fence) out.emplace_back(t.name, std::move(p));
  }
  return out;
}

/// An SC program drawn from `seed`; every other draw also has fences.
lang::Program sc_draw(std::uint32_t seed, std::uint32_t i) {
  lang::GeneratorOptions o;
  o.seed = seed;
  o.threads = 2 + static_cast<int>(i % 2);
  o.vars = 2;
  o.max_value = 1;
  o.stmts_per_thread = 2;
  o.allow_sc = true;
  o.allow_fences = (i % 2) == 0;
  return generate_program(o);
}

TEST(Incremental, ScAndFenceCorpusAgreesWithOracleAtEveryStep) {
  const auto corpus = sc_and_fence_corpus();
  ASSERT_GE(corpus.size(), 12u) << "SC/fence corpus programs went missing";
  for (const auto& [name, p] : corpus) {
    walk_program(p, /*budget=*/300, name);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(Incremental, ScFenceFuzzSweepAgreesWithOracle) {
  const std::uint32_t base = fuzz_seed_base();
  constexpr std::uint32_t kPrograms = 100;
  for (std::uint32_t i = 0; i < kPrograms; ++i) {
    const std::uint32_t seed = base + i;
    const lang::Program p = sc_draw(seed, i);
    const std::string tag = "replay with RC11_FUZZ_SEED=" +
                            std::to_string(seed) + " (SC slice)\n" +
                            p.to_string();
    walk_program(p, /*budget=*/80, tag);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

/// An SC variant of a classic shape for the candidate walk: SB, MP, LB, S,
/// R, 2+2W, WRC, IRIW, ISA2 or an SB whose first edge is an hb chain
/// through a third variable. Every access is SC half the time, else
/// release/acquire or relaxed, and an SC fence sits between two accesses
/// of a thread a third of the time. lang::generate_program draws SC too
/// rarely to offer many Sc-violating candidates; these shapes offer them
/// in every variant that can forbid an outcome.
lang::Program sc_shape_draw(std::uint32_t seed) {
  // One thread per string: W<var><value> writes, R<var> reads.
  static const std::vector<std::vector<std::string>> kShapes = {
      {"Wx1 Ry", "Wy1 Rx"},
      {"Wx1 Wy1", "Ry Rx"},
      {"Rx Wy1", "Ry Wx1"},
      {"Wx2 Wy1", "Ry Wx1"},
      {"Wx1 Wy1", "Wy2 Rx"},
      {"Wx1 Wy2", "Wy1 Wx2"},
      {"Wx1", "Rx Wy1", "Ry Rx"},
      {"Wx1", "Wy1", "Rx Ry", "Ry Rx"},
      {"Wx1 Wy1", "Ry Wz1", "Rz Rx"},
      {"Wx1 Wy1", "Ry Rz", "Wz1 Rx"},
  };
  std::mt19937 rng(seed);
  const auto pick = [&](std::uint32_t k) { return rng() % k; };
  const auto& shape = kShapes[pick(kShapes.size())];
  std::string src = "litmus SC_SHAPE\nvar x = 0\nvar y = 0\nvar z = 0\n";
  for (std::size_t t = 0; t < shape.size(); ++t) {
    src += "thread " + std::to_string(t + 1) + " {";
    std::istringstream accesses(shape[t]);
    std::string a;
    for (int r = 0; accesses >> a; ++r) {
      if (r > 0 && pick(3) == 0) src += " fence_sc;";
      const std::string var(1, a[1]);
      const std::uint32_t mode = pick(4);  // 0, 1: SC; 2: rel/acq; 3: rlx
      if (a[0] == 'W') {
        src += " " + var +
               (mode < 2 ? " :=SC " : mode == 2 ? " :=R " : " := ") +
               a.substr(2) + ";";
      } else {
        src += " r" + std::to_string(r) + " := " + var +
               (mode < 2 ? "@SC;" : mode == 2 ? "@A;" : ";");
      }
    }
    src += " }\n";
  }
  return lang::parse_litmus(src).program;
}

/// Visits each distinct state reachable through Sc-respecting steps once,
/// up to `budget` states. At each, every candidate step before the Sc
/// filter is pushed, and sc_ok_after_push must agree with the from-scratch
/// check_sc on the result. Counts the candidates the oracle rejects.
void sc_candidate_walk(interp::Config& c, std::set<util::Fingerprint>& seen,
                       std::size_t& budget, std::size_t& rejected,
                       const std::string& tag) {
  if (budget == 0 || !seen.insert(c.fingerprint()).second) return;
  --budget;
  const interp::StepOptions opts;
  std::vector<interp::Step> steps;
  c.has_sc = false;  // list the candidates the filter would see
  interp::enumerate_steps_uncached(c, opts, steps);
  c.has_sc = true;
  c11::Execution::UndoToken tok;
  interp::StepUndo undo;
  for (const interp::Step& s : steps) {
    if (!s.silent && !s.action.is_fence()) {
      c.exec.push_event(s.thread, s.action, s.observed, tok);
      const bool fast = c11::sc_ok_after_push(c.exec);
      const bool oracle =
          c11::check_sc(c.exec, c11::compute_derived(c.exec));
      const std::string pushed = c11::to_string(c.exec.event(tok.event));
      c.exec.pop_event(tok);
      ASSERT_EQ(fast, oracle) << tag << "\npushing " << pushed << " onto\n"
                              << c.canonical_key();
      if (!oracle) {
        ++rejected;
        continue;  // the precondition holds only on Sc states
      }
    }
    interp::apply_step(c, s, opts, undo);
    sc_candidate_walk(c, seen, budget, rejected, tag);
    interp::undo_step(c, undo);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(Incremental, ScOkAfterPushAgreesWithCheckScOnEveryCandidate) {
  std::vector<std::pair<std::string, lang::Program>> programs =
      sc_and_fence_corpus();
  // The psc edge from x :=SC 1 to r1 := z@SC exists only through scb's
  // sb|!=loc;hb;sb|!=loc part (the hb runs through the release/acquire
  // pair on y), so only that part closes the cycle forbidding r0 = 1,
  // r1 = 0, r2 = 0.
  programs.emplace_back("SB through an hb chain", lang::parse_litmus(R"(
litmus SB_HB_CHAIN
var x = 0
var y = 0
var z = 0
thread 1 { x :=SC 1; y :=R 1; }
thread 2 { r0 := y@A; r1 := z@SC; }
thread 3 { z :=SC 1; r2 := x@SC; }
)").program);
  const std::uint32_t base = fuzz_seed_base();
  for (std::uint32_t i = 0; i < 64; ++i) {
    programs.emplace_back("replay with RC11_FUZZ_SEED=" +
                              std::to_string(base + i) + " (SC shape)",
                          sc_shape_draw(base + i));
  }
  std::size_t rejected = 0;
  for (const auto& [name, p] : programs) {
    if (!lang::scan_sc_features(p).has_sc) continue;
    interp::Config c = interp::initial_config(p);
    std::set<util::Fingerprint> seen;
    std::size_t budget = 3000;
    sc_candidate_walk(c, seen, budget, rejected, name + "\n" + p.to_string());
    if (::testing::Test::HasFatalFailure()) return;
  }
  // The corpus alone has forbidden SC outcomes, so the filter must have
  // rejected candidates: the walk compared both verdicts.
  EXPECT_GT(rejected, 0u);
}

/// Steps of thread t within an enumeration, in order.
std::vector<interp::Step> steps_of(const std::vector<interp::Step>& steps,
                                   interp::ThreadId t) {
  std::vector<interp::Step> out;
  for (const interp::Step& s : steps) {
    if (s.thread == t) out.push_back(s);
  }
  return out;
}

// Adversarial step-cache invalidation: three threads racing on two
// variables, arranged so that a stale cached slice would be *wrong in
// both directions* after another thread's step:
//
//   thread 1 { x.swap(1); y := 1; }   (covers a write on x, then makes a
//                                      new write observable on y)
//   thread 2 { x := 2; }              (cached slice: placements on x)
//   thread 3 { r0 := y; }             (cached slice: reads on y)
//
// Applying thread 1's update covers init(x): thread 2's cached write
// placements still offer init(x) — serving them would fabricate a
// transition that violates atomicity (a write slipped between an update
// and the write it reads from). Applying thread 1's y := 1 then makes a
// new write observable to thread 3: its cached read slice would *miss* a
// transition. Neither thread 2 nor thread 3 is touched by either apply,
// so eager dirty bits alone cannot catch this — only the per-variable
// version counters can. The test asserts both recoveries, plus the
// precise reuse/recompute split (the *untouched* variable's thread keeps
// its slice: invalidation must be lazy but not indiscriminate).
TEST(Incremental, StaleCacheCatchesCoveredAndNewlyObservableWrites) {
  const auto parsed = lang::parse_litmus(R"(litmus ADV
var x = 0
var y = 0
thread 1 { x.swap(1); y := 1; }
thread 2 { x := 2; }
thread 3 { r0 := y; }
)");
  interp::Config c = interp::initial_config(parsed.program);
  const interp::StepOptions opts;  // no tau compression: one step at a time

  std::vector<interp::Step> steps;
  interp::enumerate_steps(c, opts, steps);

  // Root: thread 1 updates on top of init(x); thread 2 places its write
  // after init(x); thread 3 reads init(y).
  const auto t1_root = steps_of(steps, 1);
  ASSERT_EQ(t1_root.size(), 1u);
  const c11::EventId init_x = t1_root[0].observed;
  ASSERT_EQ(steps_of(steps, 2).size(), 1u);
  ASSERT_EQ(steps_of(steps, 2)[0].observed, init_x);
  ASSERT_EQ(steps_of(steps, 3).size(), 1u);

  // Apply thread 1's update. Thread 2's cached slice is now stale: the
  // update covers init(x).
  interp::StepUndo undo_upd;
  const c11::EventId upd_ev = interp::apply_step(c, t1_root[0], opts, undo_upd);
  ASSERT_NE(upd_ev, c11::kNoEvent);

  const interp::StepEnumCounters before1 = interp::step_enum_counters();
  interp::enumerate_steps(c, opts, steps);
  const interp::StepEnumCounters after1 = interp::step_enum_counters();
  {
    std::vector<interp::Step> oracle;
    interp::enumerate_steps_uncached(c, opts, oracle);
    ASSERT_EQ(steps.size(), oracle.size());
  }
  // Thread 2 must have been re-enumerated (write version on x moved), and
  // its only placement is after the update — init(x) is covered.
  const auto t2_after_upd = steps_of(steps, 2);
  ASSERT_EQ(t2_after_upd.size(), 1u);
  EXPECT_EQ(t2_after_upd[0].observed, upd_ev);
  // Thread 3 peeks y, untouched by the update: its slice was reused.
  // Recomputed: thread 1 (eager dirty bit) + thread 2 (version-stale).
  EXPECT_EQ(after1.recomputed - before1.recomputed, 2u);
  EXPECT_EQ(after1.reused - before1.reused, 1u);

  // Walk thread 1 through its silent steps (no tau compression here)
  // until its y := 1 write is at the head. Silent applies dirty only
  // thread 1, so threads 2 and 3 keep their slices across this stretch.
  std::vector<std::unique_ptr<interp::StepUndo>> silent_undos;
  auto t1_wr = steps_of(steps, 1);
  while (!t1_wr.empty() && t1_wr[0].silent) {
    auto u = std::make_unique<interp::StepUndo>();
    interp::apply_step(c, t1_wr[0], opts, *u);
    silent_undos.push_back(std::move(u));
    interp::enumerate_steps(c, opts, steps);
    t1_wr = steps_of(steps, 1);
  }
  ASSERT_EQ(t1_wr.size(), 1u);
  ASSERT_FALSE(t1_wr[0].silent);
  interp::StepUndo undo_wr;
  const c11::EventId wr_ev = interp::apply_step(c, t1_wr[0], opts, undo_wr);
  ASSERT_NE(wr_ev, c11::kNoEvent);

  const interp::StepEnumCounters before2 = interp::step_enum_counters();
  interp::enumerate_steps(c, opts, steps);
  const interp::StepEnumCounters after2 = interp::step_enum_counters();
  {
    std::vector<interp::Step> oracle;
    interp::enumerate_steps_uncached(c, opts, oracle);
    ASSERT_EQ(steps.size(), oracle.size());
  }
  // Thread 3 now has two reads (init(y) and the new write) — a stale
  // slice would have kept one.
  const auto t3_after_wr = steps_of(steps, 3);
  ASSERT_EQ(t3_after_wr.size(), 2u);
  EXPECT_TRUE(t3_after_wr[0].observed == wr_ev ||
              t3_after_wr[1].observed == wr_ev);
  // Thread 2 peeks x, untouched by the y-write: reused. Recomputed:
  // thread 1 (eager) + thread 3 (version-stale).
  EXPECT_EQ(after2.recomputed - before2.recomputed, 2u);
  EXPECT_EQ(after2.reused - before2.reused, 1u);

  // Unwind and re-check: pops rewind nothing silently — the version
  // streams advance monotonically, so the entries minted above are stale
  // again and the root enumeration matches the oracle.
  interp::undo_step(c, undo_wr);
  for (auto it = silent_undos.rbegin(); it != silent_undos.rend(); ++it) {
    interp::undo_step(c, **it);
  }
  interp::undo_step(c, undo_upd);
  interp::enumerate_steps(c, opts, steps);
  std::vector<interp::Step> oracle;
  interp::enumerate_steps_uncached(c, opts, oracle);
  ASSERT_EQ(steps.size(), oracle.size());
  ASSERT_EQ(steps_of(steps, 2).size(), 1u);
  EXPECT_EQ(steps_of(steps, 2)[0].observed, init_x);
  EXPECT_EQ(steps_of(steps, 3).size(), 1u);
}

}  // namespace
}  // namespace rc11
