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
//   * the fingerprint read after a step's thread half alone, with its push
//     pending (interp::pending_fingerprint, the explorers' seen-set probe),
//     == the materialized successor's fingerprint == the fingerprint the
//     memory half then leaves;
//   * undo_step after a thread half alone (the explorers' merge) restores
//     the canonical key, the fingerprint and every maintained quantity bit
//     for bit;
//   * undo_step restores the previous canonical key / fingerprint and the
//     caches still match the oracles (undo/redo sequences stay exact —
//     each sibling subtree is an apply/undo cycle at its node).
//
// A long single descent (600+ events), in both tau modes, checks the same
// caches every 16 levels, past the sizes where relation rows leave their
// inline words and turn sparse, and the pending fingerprint (against the
// from-scratch fingerprint of the pushed execution) and the thread-half
// undo of every enumerated step at every level.
//
// A second walk pushes every candidate step *before* the Sc filter at
// every state of the SC and fence programs and asserts that
// sc_ok_after_push agrees with check_sc, rejections included.
//
// sigma_0's cache is built directly, not by closure. On every catalogue,
// corpus and fuzz-slice program it must equal the from-scratch rebuild in
// every field (Execution::cache_mismatch), and the root fingerprint read
// from its lanes must equal the from-scratch one; an execution of
// sigma_0's shape changed by add_rf or add_mo must be rebuilt from
// scratch.
#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <optional>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "c11/axioms.hpp"
#include "c11/derived.hpp"
#include "c11/observability.hpp"
#include "helpers.hpp"
#include "interp/config.hpp"
#include "lang/generator.hpp"
#include "lang/parser.hpp"
#include "litmus/catalog.hpp"
#include "litmus/import.hpp"
#include "mc/independence.hpp"
#include "vcgen/peterson.hpp"

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

/// Every maintained quantity of c, read through the cached accessors, so
/// that a thread half and its undo can be shown to leave them bit for bit.
/// The per-thread slots the enumeration pinned (reserve_cache_threads) are
/// read without growing them.
struct CacheImage {
  c11::Execution exec;  // events, rf, mo
  util::Relation hb, eco;
  util::Bitset covered;
  std::vector<util::Bitset> encountered, thread_events, var_writes;
  std::vector<std::uint64_t> cids;
  util::Fingerprint exec_fp;
  // The thread state, continuations by node identity.
  std::vector<lang::ComPtr> cont;
  std::vector<lang::RegFile> regs;
  std::vector<int> unfoldings;
  interp::TauCompress tau_normal = interp::TauCompress::kEveryStep;

  static CacheImage of(interp::Config& c) {
    c11::Execution& ex = c.exec;
    CacheImage im;
    im.exec = ex;
    im.hb = ex.cached_hb();
    im.eco = ex.cached_eco();
    im.covered = ex.cached_covered();
    for (c11::ThreadId t = 0; t < ex.cached_thread_count(); ++t) {
      im.encountered.push_back(ex.cached_encountered(t));
      im.thread_events.push_back(ex.cached_thread_events(t));
    }
    for (c11::VarId x = 0; x < ex.var_count(); ++x) {
      im.var_writes.push_back(ex.cached_var_writes(x));
    }
    im.cids = *ex.cids_if_cached();
    im.exec_fp = ex.fingerprint();
    im.cont = c.cont;
    im.regs = c.regs;
    im.unfoldings = c.unfoldings;
    im.tau_normal = c.tau_normal;
    return im;
  }
};

void expect_same_image(interp::Config& c, const CacheImage& want,
                       const std::string& tag) {
  const CacheImage got = CacheImage::of(c);
  ASSERT_TRUE(got.exec == want.exec) << tag;
  ASSERT_EQ(got.hb, want.hb) << tag;
  ASSERT_EQ(got.eco, want.eco) << tag;
  ASSERT_EQ(got.covered, want.covered) << tag;
  ASSERT_EQ(got.encountered, want.encountered) << tag;
  ASSERT_EQ(got.thread_events, want.thread_events) << tag;
  ASSERT_EQ(got.var_writes, want.var_writes) << tag;
  ASSERT_EQ(got.cids, want.cids) << tag;
  ASSERT_EQ(got.exec_fp, want.exec_fp) << tag;
  ASSERT_EQ(got.cont, want.cont) << tag;
  ASSERT_EQ(got.regs, want.regs) << tag;
  ASSERT_EQ(got.unfoldings, want.unfoldings) << tag;
  ASSERT_EQ(got.tau_normal, want.tau_normal) << tag;
}

/// Applies the thread half of `s` alone and returns the fingerprint read
/// with its push pending; asserts that undo_step then restores the
/// fingerprint and, when given, the canonical key and every maintained
/// quantity bit for bit. The explorers probe their seen sets with this
/// fingerprint and undo exactly this way on a merge.
util::Fingerprint pending_then_undo(interp::Config& c, const interp::Step& s,
                                    const interp::StepOptions& opts,
                                    const util::Fingerprint& fp_before,
                                    const std::string* key_before,
                                    const CacheImage* image,
                                    const std::string& tag) {
  interp::StepUndo half;
  interp::apply_thread_half(c, s, opts, half);
  EXPECT_EQ(half.event, c11::kNoEvent) << tag;
  const util::Fingerprint pending = interp::pending_fingerprint(c, s);
  interp::undo_step(c, half);
  EXPECT_EQ(c.fingerprint(), fp_before) << tag << " after thread-half undo";
  if (key_before != nullptr) {
    EXPECT_EQ(c.canonical_key(), *key_before)
        << tag << " after thread-half undo";
  }
  if (image != nullptr) {
    expect_same_image(c, *image, tag + " after thread-half undo");
  }
  return pending;
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
  const CacheImage image = CacheImage::of(c);

  interp::StepUndo undo;
  for (std::size_t i = 0; i < steps.size(); ++i) {
    ASSERT_EQ(steps[i].thread, oracle[i].thread) << tag;
    ASSERT_EQ(steps[i].silent, oracle[i].silent) << tag;
    ASSERT_EQ(steps[i].loop_unfold, oracle[i].loop_unfold) << tag;
    if (!steps[i].silent) {
      ASSERT_EQ(steps[i].observed, oracle[i].observed) << tag;
      ASSERT_EQ(steps[i].action, oracle[i].action) << tag;
    }

    // The fingerprint read before the push is the materialized
    // successor's, and a thread half alone undoes exactly.
    const util::Fingerprint pending = pending_then_undo(
        c, steps[i], opts, fp_before, &key_before, &image, tag);
    if (::testing::Test::HasFailure()) return;
    ASSERT_EQ(pending, oracle[i].next.fingerprint()) << tag << " step " << i;

    // The explorers' deferred path: thread half, then memory half.
    interp::apply_thread_half(c, steps[i], opts, undo);
    const c11::EventId ev = interp::apply_memory_half(c, steps[i], undo);
    ASSERT_EQ(ev, oracle[i].event) << tag;
    // The two halves reach the materialized successor exactly (isomorphic
    // configuration: same canonical key, same fingerprint), and the push
    // keeps the fingerprint that was read before it.
    ASSERT_EQ(c.canonical_key(), oracle[i].next.canonical_key()) << tag;
    ASSERT_EQ(c.fingerprint(), oracle[i].next.fingerprint()) << tag;
    ASSERT_EQ(c.fingerprint(), pending) << tag << " after the push";

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

/// The three step granularities, each walked in turn.
constexpr interp::TauCompress kGranularities[] = {
    interp::TauCompress::kEveryStep, interp::TauCompress::kStutterFree,
    interp::TauCompress::kFused};

std::string granularity_tag(interp::TauCompress g) {
  switch (g) {
    case interp::TauCompress::kEveryStep:
      return " [every step]";
    case interp::TauCompress::kStutterFree:
      return " [stutter-free]";
    case interp::TauCompress::kFused:
      return " [fused]";
  }
  return " [?]";
}

void walk_program(const lang::Program& p, std::size_t budget,
                  const std::string& tag, int loop_bound = 2) {
  for (const interp::TauCompress g : kGranularities) {
    interp::StepOptions opts;
    opts.loop_bound = loop_bound;
    opts.tau_compress = g;
    interp::Config c = interp::initial_config(p);
    std::size_t b = budget;
    walk(c, opts, b, tag + granularity_tag(g));
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

TEST(Incremental, PetersonAgreesWithOracleAtEveryStep) {
  // Labelled programs: some silent steps move a pc and some do not, so the
  // stutter-free drain stops where the fused one runs on.
  walk_program(vcgen::make_peterson(), /*budget=*/600, "peterson");
  if (::testing::Test::HasFatalFailure()) return;
  walk_program(vcgen::make_peterson_rounds(2), /*budget=*/600,
               "peterson, 2 rounds");
}

TEST(Incremental, LoopedProgramsAgreeWithOracleUpToTheBound) {
  // The drained granularities fuse every unfolding the bound allows and
  // keep the one at the bound out. Walks at each bound up to past a loop's
  // natural unfold count cover fused unfoldings, unfoldings a memory
  // step's drain takes, the bound's edge, and undo restoring unfold counts
  // through the first-touch snapshots.
  const lang::Program tas = lang::parse_litmus(testing::kRmwTasLock).program;
  for (int bound = 0; bound <= 3; ++bound) {
    walk_program(tas, /*budget=*/300,
                 "rmw_tas_lock, loop bound " + std::to_string(bound), bound);
    if (::testing::Test::HasFatalFailure()) return;
  }
  // Thread 1 needs three unfoldings to leave its loop; the body is silent.
  const lang::Program loop = lang::parse_litmus(R"(litmus register_loop
var x = 0
thread 1 { 1: while (r < 2) { r := r + 1; } 2: x := r; }
thread 2 { s := x; x := 5; }
)")
                                 .program;
  for (int bound = 2; bound <= 4; ++bound) {
    walk_program(loop, /*budget=*/300,
                 "register_loop, loop bound " + std::to_string(bound), bound);
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

/// sigma_0's cache as the engines build it (interp::prepare_cache, at the
/// program's width) against the from-scratch rebuild in every field, and
/// the root fingerprint against the from-scratch one.
void check_initial_cache(const lang::Program& p, const std::string& tag) {
  interp::Config c = interp::initial_config(p);
  ASSERT_FALSE(c.exec.cache_valid()) << tag << ": built before first use";
  const util::Fingerprint from_scratch = c.fingerprint();
  interp::prepare_cache(c);
  ASSERT_EQ(c.exec.cache_mismatch(), "") << tag;
  ASSERT_EQ(c.exec.cached_thread_count(), p.thread_count() + 1) << tag;
  ASSERT_EQ(c.exec.fingerprint(), c.exec.fingerprint_uncached()) << tag;
  ASSERT_EQ(c.fingerprint(), from_scratch) << tag;
  check_cache(c, tag);
}

TEST(Incremental, InitialCacheEqualsTheRebuildOnEveryProgram) {
  std::size_t programs = 0;
  for (const auto& test : litmus::catalog()) {
    check_initial_cache(lang::parse_litmus(test.source).program, test.name);
    if (::testing::Test::HasFatalFailure()) return;
    ++programs;
  }
  for (const litmus::ImportedTest& t : litmus::import_path(RC11_CORPUS_DIR)) {
    check_initial_cache(lang::parse_litmus(t.source).program, t.name);
    if (::testing::Test::HasFatalFailure()) return;
    ++programs;
  }
  check_initial_cache(vcgen::make_peterson(), "peterson");
  if (::testing::Test::HasFatalFailure()) return;
  const std::uint32_t base = fuzz_seed_base();
  for (std::uint32_t i = 0; i < 200; ++i) {
    lang::GeneratorOptions o;
    o.seed = base + i;
    o.threads = 1 + static_cast<int>(i % 4);
    o.vars = 1 + static_cast<int>(i % 5);
    o.max_value = 2;
    o.stmts_per_thread = 2;
    o.allow_nonatomic = (i % 3) == 1;
    o.allow_sc = (i % 4) == 2;
    const lang::Program p = generate_program(o);
    check_initial_cache(p, "replay with RC11_FUZZ_SEED=" +
                               std::to_string(base + i) + "\n" +
                               p.to_string());
    if (::testing::Test::HasFatalFailure()) return;
    ++programs;
  }
  EXPECT_GE(programs, 250u);
}

TEST(Incremental, RawMutationsOfTheInitialShapeRebuildFromScratch) {
  const c11::VarId x = 0;
  // Two initialising writes of x; add_mo orders them.
  c11::Execution mo = c11::Execution::initial({{x, 0}, {x, 1}});
  mo.ensure_cache();
  ASSERT_EQ(mo.cache_mismatch(), "");
  ASSERT_TRUE(mo.cached_eco().empty());
  mo.add_mo(0, 1);
  ASSERT_FALSE(mo.cache_valid());
  mo.ensure_cache();
  EXPECT_EQ(mo.cache_mismatch(), "");
  EXPECT_TRUE(mo.cached_eco().contains(0, 1));

  // Thread 0 writes only, but an update among them reads from the first
  // write: add_rf covers that write and adds eco.
  c11::Execution rf = c11::Execution::initial({{x, 0}});
  const c11::EventId u = rf.add_event(c11::kInitThread, c11::Action::upd(x, 0, 1));
  rf.ensure_cache();
  ASSERT_EQ(rf.cache_mismatch(), "");
  rf.add_rf(0, u);
  rf.ensure_cache();
  EXPECT_EQ(rf.cache_mismatch(), "");
  EXPECT_TRUE(rf.cached_covered().test(0));
  EXPECT_TRUE(rf.cached_eco().contains(0, u));
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
  constexpr std::size_t kEvery = 16;
  constexpr std::size_t kStepsEvery = 64;

  for (const interp::TauCompress g : kGranularities) {
    const std::string tag = "long descent" + granularity_tag(g);
    interp::StepOptions opts;
    opts.tau_compress = g;
    interp::Config c = interp::initial_config(p);
    std::mt19937 rng(o.seed);
    std::vector<interp::StepUndo> undo;
    std::vector<util::Fingerprint> fps;
    std::vector<interp::Step> steps;
    for (std::size_t d = 0;; ++d) {
      const std::string at = tag + " down at depth " + std::to_string(d);
      fps.push_back(c.fingerprint());
      interp::enumerate_steps(c, opts, steps);
      const bool deep = d % kEvery == 0;
      if (deep) {
        check_cache(c, at);
        if (::testing::Test::HasFatalFailure()) return;
      }
      std::vector<interp::ConfigStep> oracle;
      if (d % kStepsEvery == 0) {
        oracle = interp::successors(c, opts);
        ASSERT_EQ(steps.size(), oracle.size()) << at;
        for (std::size_t i = 0; i < steps.size(); ++i) {
          ASSERT_EQ(steps[i].thread, oracle[i].thread) << at;
          if (!steps[i].silent) {
            ASSERT_EQ(steps[i].observed, oracle[i].observed) << at;
            ASSERT_EQ(steps[i].action, oracle[i].action) << at;
          }
        }
      }
      // Every enumerated step: the fingerprint read before the push is
      // the one the push leaves, whose lanes equal their from-scratch
      // recomputation (and the materialized successor's fingerprint, where
      // listed), and the thread half alone undoes to the same fingerprint
      // (and, every kEvery levels, to the same events, relations, thread
      // state and maintained quantities: at this size a canonical key
      // would cost more than the rest of the walk).
      std::optional<CacheImage> image;
      if (deep) image = CacheImage::of(c);
      for (std::size_t i = 0; i < steps.size(); ++i) {
        const util::Fingerprint pending =
            pending_then_undo(c, steps[i], opts, fps.back(), nullptr,
                              image ? &*image : nullptr, at);
        if (::testing::Test::HasFailure()) return;
        interp::StepUndo full;
        (void)interp::apply_step(c, steps[i], opts, full);
        ASSERT_EQ(c.fingerprint(), pending) << at << " step " << i;
        ASSERT_EQ(c.exec.fingerprint(), c.exec.fingerprint_uncached())
            << at << " step " << i;
        interp::undo_step(c, full);
        if (!oracle.empty()) {
          ASSERT_EQ(pending, oracle[i].next.fingerprint())
              << at << " step " << i;
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
  interp::enumerate_steps(c, opts, steps);
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

// Enumeration across threads: three threads racing on two variables,
// arranged so that another thread's step changes what a thread may do in
// both directions:
//
//   thread 1 { x.swap(1); y := 1; }   (covers a write on x, then makes a
//                                      new write observable on y)
//   thread 2 { x := 2; }              (write placements on x)
//   thread 3 { r0 := y; }             (reads on y)
//
// Applying thread 1's update covers init(x): thread 2 may no longer place
// its write after init(x) — that would slip a write between an update and
// the write it reads from. Applying thread 1's y := 1 then makes a new
// write observable to thread 3, which gains a read. Neither thread 2 nor
// thread 3 acts in between. At each point enumerate_steps must list
// exactly the successors() transitions, and after unwinding the root
// enumeration must match again.
TEST(Incremental, EnumerationTracksCoveredAndNewlyObservableWrites) {
  const auto parsed = lang::parse_litmus(R"(litmus ADV
var x = 0
var y = 0
thread 1 { x.swap(1); y := 1; }
thread 2 { x := 2; }
thread 3 { r0 := y; }
)");
  interp::Config c = interp::initial_config(parsed.program);
  const interp::StepOptions opts;  // no tau compression: one step at a time

  // enumerate_steps into `steps`, checked against the successors() oracle.
  std::vector<interp::Step> steps;
  const auto enumerate = [&] {
    interp::enumerate_steps(c, opts, steps);
    const std::vector<interp::ConfigStep> oracle = interp::successors(c, opts);
    ASSERT_EQ(steps.size(), oracle.size());
    for (std::size_t i = 0; i < steps.size(); ++i) {
      ASSERT_EQ(steps[i].thread, oracle[i].thread) << "step " << i;
      ASSERT_EQ(steps[i].observed, oracle[i].observed) << "step " << i;
    }
  };

  enumerate();
  if (::testing::Test::HasFatalFailure()) return;
  // Root: thread 1 updates on top of init(x); thread 2 places its write
  // after init(x); thread 3 reads init(y).
  const auto t1_root = steps_of(steps, 1);
  ASSERT_EQ(t1_root.size(), 1u);
  const c11::EventId init_x = t1_root[0].observed;
  ASSERT_EQ(steps_of(steps, 2).size(), 1u);
  ASSERT_EQ(steps_of(steps, 2)[0].observed, init_x);
  ASSERT_EQ(steps_of(steps, 3).size(), 1u);

  // Apply thread 1's update: it covers init(x).
  interp::StepUndo undo_upd;
  const c11::EventId upd_ev = interp::apply_step(c, t1_root[0], opts, undo_upd);
  ASSERT_NE(upd_ev, c11::kNoEvent);

  enumerate();
  if (::testing::Test::HasFatalFailure()) return;
  // Thread 2's only placement is now after the update — init(x) is
  // covered.
  const auto t2_after_upd = steps_of(steps, 2);
  ASSERT_EQ(t2_after_upd.size(), 1u);
  EXPECT_EQ(t2_after_upd[0].observed, upd_ev);

  // Walk thread 1 through its silent steps (no tau compression here)
  // until its y := 1 write is at the head.
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

  enumerate();
  if (::testing::Test::HasFatalFailure()) return;
  // Thread 3 now has two reads: init(y) and the new write.
  const auto t3_after_wr = steps_of(steps, 3);
  ASSERT_EQ(t3_after_wr.size(), 2u);
  EXPECT_TRUE(t3_after_wr[0].observed == wr_ev ||
              t3_after_wr[1].observed == wr_ev);

  // Unwind: the root enumeration matches the oracle again.
  interp::undo_step(c, undo_wr);
  for (auto it = silent_undos.rbegin(); it != silent_undos.rend(); ++it) {
    interp::undo_step(c, **it);
  }
  interp::undo_step(c, undo_upd);
  enumerate();
  if (::testing::Test::HasFatalFailure()) return;
  ASSERT_EQ(steps_of(steps, 2).size(), 1u);
  EXPECT_EQ(steps_of(steps, 2)[0].observed, init_x);
  EXPECT_EQ(steps_of(steps, 3).size(), 1u);
}

}  // namespace
}  // namespace rc11
