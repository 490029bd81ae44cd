// Dense-vs-sparse representation equivalence for the hybrid Bitset /
// Relation rows (util/bitset.hpp). The chunked sparse form must be
// *observationally identical* to the dense form: same membership, pairs,
// hashes, closures, restrictions and compositions for any op sequence.
// Two layers:
//
//   * a seeded randomized differential — the same mutation sequence is
//     replayed against a dense-pinned and a sparse-pinned Relation and a
//     std::set-of-pairs model, and every queryable surface is compared
//     (the model also pins the lazily-sized resize contract);
//   * an end-to-end cross-check — litmus-catalogue programs are explored
//     with every row forced sparse, and the final-execution fingerprint
//     sets, outcome sets and verdicts must match the default (hybrid)
//     representation run.
#include <gtest/gtest.h>

#include <cstddef>
#include <optional>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "lang/parser.hpp"
#include "litmus/catalog.hpp"
#include "mc/checker.hpp"
#include "util/relation.hpp"

namespace rc11 {
namespace {

/// Pins the global representation threshold for a scope.
class ThresholdGuard {
 public:
  explicit ThresholdGuard(std::size_t words)
      : saved_(util::Bitset::sparse_threshold_words()) {
    util::Bitset::set_sparse_threshold_words(words);
  }
  ~ThresholdGuard() { util::Bitset::set_sparse_threshold_words(saved_); }
  ThresholdGuard(const ThresholdGuard&) = delete;
  ThresholdGuard& operator=(const ThresholdGuard&) = delete;

 private:
  std::size_t saved_;
};

constexpr std::size_t kForceDense = ~std::size_t{0} >> 1;
constexpr std::size_t kForceSparse = 0;

/// One randomized mutation, drawn once and applied identically to the
/// dense relation, the sparse relation and the reference model.
struct Op {
  enum Kind { kAdd, kRemove, kGrow, kShrink, kAddColumn, kAddRow } kind = kAdd;
  std::size_t a = 0;  ///< source, or the column / row of a batch write
  std::size_t b = 0;  ///< target, or the new universe size of a resize
  std::vector<std::size_t> batch;  ///< members of a batch write
};

Op draw(std::size_t n, std::mt19937& rng) {
  Op op;
  switch (rng() % 8) {
    case 0:
    case 1:
    case 2:  // add dominates: relations in the engine mostly grow
      op.kind = Op::kAdd;
      break;
    case 3:
      op.kind = Op::kRemove;
      break;
    case 4:  // grow by 1-3 (the append-one-event pattern)
      op.kind = Op::kGrow;
      op.b = n + 1 + rng() % 3;
      return op;
    case 5:  // shrink by 1-3 (the undo path; dropped pairs must vanish)
      op.kind = Op::kShrink;
      op.b = n > 4 ? n - 1 - rng() % 3 : n;
      return op;
    case 6:  // batch column write (the hb/eco push_event kernel)
      op.kind = Op::kAddColumn;
      break;
    case 7:  // batch row write
      op.kind = Op::kAddRow;
      break;
  }
  if (n == 0) return op;
  op.a = rng() % n;
  op.b = rng() % n;
  if (op.kind == Op::kAddColumn || op.kind == Op::kAddRow) {
    for (std::size_t k = 0; k < n / 3 + 1; ++k) op.batch.push_back(rng() % n);
  }
  return op;
}

void apply(const Op& op, util::Relation& r) {
  const std::size_t n = r.size();
  switch (op.kind) {
    case Op::kAdd:
      if (n != 0) r.add(op.a, op.b);
      break;
    case Op::kRemove:
      if (n != 0) r.remove(op.a, op.b);
      break;
    case Op::kGrow:
    case Op::kShrink:
      r.resize(op.b);
      break;
    case Op::kAddColumn:
    case Op::kAddRow: {
      if (n == 0) break;
      util::Bitset set(n);
      for (std::size_t v : op.batch) set.set(v);
      if (op.kind == Op::kAddColumn) {
        r.add_to_column(op.b, set);
      } else {
        r.add_to_row(op.a, set);
      }
      break;
    }
  }
}

/// The reference: a universe size and a std::set of pairs, independent of
/// Relation's row storage, widths and spare rows.
struct Model {
  std::size_t n = 0;
  std::set<std::pair<std::size_t, std::size_t>> pairs;

  void apply(const Op& op) {
    switch (op.kind) {
      case Op::kAdd:
        if (n != 0) pairs.emplace(op.a, op.b);
        break;
      case Op::kRemove:
        if (n != 0) pairs.erase({op.a, op.b});
        break;
      case Op::kGrow:
      case Op::kShrink:
        n = op.b;
        std::erase_if(pairs, [&](const auto& p) {
          return p.first >= n || p.second >= n;
        });
        break;
      case Op::kAddColumn:
        if (n != 0) {
          for (std::size_t v : op.batch) pairs.emplace(v, op.b);
        }
        break;
      case Op::kAddRow:
        if (n != 0) {
          for (std::size_t v : op.batch) pairs.emplace(op.a, v);
        }
        break;
    }
  }
};

/// Compares r against the model through the accessors that do not size
/// rows (contains, pairs, pair_count) and then through row(a) and, with the
/// inverse on, column_view(a) for the elements in `probe` (which sizes
/// them, so probing only some rows leaves the others lazily sized).
void expect_matches(const util::Relation& r, const Model& m,
                    const std::vector<std::size_t>& probe,
                    const std::string& where) {
  ASSERT_EQ(r.size(), m.n) << where;
  const std::vector<std::pair<std::size_t, std::size_t>> want(m.pairs.begin(),
                                                              m.pairs.end());
  ASSERT_EQ(r.pairs(), want) << where;
  ASSERT_EQ(r.pair_count(), m.pairs.size()) << where;
  for (std::size_t a = 0; a < m.n; ++a) {
    for (std::size_t b = 0; b < m.n; ++b) {
      ASSERT_EQ(r.contains(a, b), m.pairs.count({a, b}) == 1)
          << where << " pair (" << a << "," << b << ")";
    }
  }
  for (std::size_t a : probe) {
    if (a >= m.n) continue;
    std::vector<std::size_t> succ, pred;
    for (const auto& [x, y] : m.pairs) {
      if (x == a) succ.push_back(y);
      if (y == a) pred.push_back(x);
    }
    ASSERT_EQ(r.row(a).size(), m.n) << where;
    ASSERT_EQ(r.row(a).elements(), succ) << where << " row " << a;
    if (r.inverse_enabled()) {
      ASSERT_EQ(r.column_view(a).size(), m.n) << where;
      ASSERT_EQ(r.column_view(a).elements(), pred) << where << " column " << a;
    }
  }
}

/// Everything observable about r, computed under the *current* threshold
/// (closures and restrictions build fresh rows, so running this inside a
/// ThresholdGuard exercises the mixed dense/sparse kernel paths too).
struct Observation {
  std::vector<std::pair<std::size_t, std::size_t>> pairs;
  std::size_t pair_count = 0;
  std::size_t hash = 0;
  bool acyclic = false;
  std::vector<std::pair<std::size_t, std::size_t>> closure_pairs;
  std::vector<std::pair<std::size_t, std::size_t>> restricted_pairs;
  std::vector<std::pair<std::size_t, std::size_t>> inv_compose_pairs;
  std::vector<std::size_t> reach;
};

Observation observe(const util::Relation& r) {
  Observation o;
  o.pairs = r.pairs();
  o.pair_count = r.pair_count();
  o.hash = r.hash();
  o.acyclic = r.is_acyclic();
  o.closure_pairs = r.transitive_closure().pairs();
  const std::size_t n = r.size();
  util::Bitset evens(n);
  for (std::size_t i = 0; i < n; i += 2) evens.set(i);
  o.restricted_pairs = r.restrict_to(evens).pairs();
  o.inv_compose_pairs = r.inverse_compose(r).pairs();
  if (n > 0) {
    r.reachable_from(0).for_each(
        [&](std::size_t v) { o.reach.push_back(v); });
  }
  return o;
}

bool operator==(const Observation& a, const Observation& b) {
  return a.pairs == b.pairs && a.pair_count == b.pair_count &&
         a.hash == b.hash && a.acyclic == b.acyclic &&
         a.closure_pairs == b.closure_pairs &&
         a.restricted_pairs == b.restricted_pairs &&
         a.inv_compose_pairs == b.inv_compose_pairs && a.reach == b.reach;
}

TEST(RelationSparse, RandomizedOpSequencesMatchDense) {
  // Three sides per op sequence: a dense-pinned Relation, a sparse-pinned
  // Relation and a std::set model, so a resize bug that both
  // representations share still shows. A copy taken halfway must not see
  // the original's later ops.
  constexpr unsigned kSeeds = 20;
  constexpr std::size_t kOps = 120;
  for (unsigned seed = 1; seed <= kSeeds; ++seed) {
    std::mt19937 rng(seed);
    const bool inverse = seed % 2 == 0;

    util::Relation dense;
    util::Relation sparse;
    Model model;
    {
      const ThresholdGuard g(kForceDense);
      dense.resize(8);
      if (inverse) dense.enable_inverse();
    }
    {
      const ThresholdGuard g(kForceSparse);
      sparse.resize(8);
      if (inverse) sparse.enable_inverse();
    }
    model.n = 8;

    std::optional<util::Relation> dense_copy;
    std::optional<util::Relation> sparse_copy;
    Model model_copy;
    for (std::size_t op_index = 0; op_index < kOps; ++op_index) {
      if (op_index == kOps / 2) {
        dense_copy = dense;
        sparse_copy = sparse;
        model_copy = model;
      }
      const Op op = draw(model.n, rng);
      {
        const ThresholdGuard g(kForceDense);
        apply(op, dense);
      }
      {
        const ThresholdGuard g(kForceSparse);
        apply(op, sparse);
      }
      model.apply(op);
      const std::string where =
          "seed " + std::to_string(seed) + " op " + std::to_string(op_index);
      // Probe one row per op, so most rows stay lazily sized between ops.
      const std::vector<std::size_t> probe = {op_index % (model.n + 1)};
      {
        const ThresholdGuard g(kForceDense);
        expect_matches(dense, model, probe, where + " dense");
      }
      {
        const ThresholdGuard g(kForceSparse);
        expect_matches(sparse, model, probe, where + " sparse");
      }
      if (::testing::Test::HasFatalFailure()) return;
      // Mixed-representation equality must hold directly.
      ASSERT_TRUE(dense == sparse)
          << where << "\ndense:  " << dense.to_string()
          << "\nsparse: " << sparse.to_string();
    }

    std::vector<std::size_t> all(model_copy.n);
    for (std::size_t a = 0; a < all.size(); ++a) all[a] = a;
    expect_matches(*dense_copy, model_copy, all,
                   "seed " + std::to_string(seed) + " dense copy");
    expect_matches(*sparse_copy, model_copy, all,
                   "seed " + std::to_string(seed) + " sparse copy");

    Observation od, os;
    {
      const ThresholdGuard g(kForceDense);
      od = observe(dense);
    }
    {
      const ThresholdGuard g(kForceSparse);
      os = observe(sparse);
    }
    EXPECT_TRUE(od == os) << "divergent observation at seed " << seed;
    if (inverse) {
      for (std::size_t b = 0; b < dense.size(); ++b) {
        ASSERT_TRUE(dense.column_view(b) == sparse.column_view(b))
            << "seed " << seed << " column " << b;
      }
    }
  }
}

TEST(RelationSparse, SparseRowsSurviveShrinkRegrow) {
  // A sparse set stays sparse on shrink; membership must still track.
  const ThresholdGuard g(kForceSparse);
  util::Relation r(200);
  for (std::size_t i = 0; i + 7 < 200; i += 7) r.add(i, i + 7);
  const auto before = r.pairs();
  r.resize(100);
  r.resize(200);
  for (const auto& [a, b] : r.pairs()) {
    EXPECT_LT(b, std::size_t{100});  // pairs with dropped endpoints gone
  }
  for (const auto& [a, b] : before) {
    EXPECT_EQ(r.contains(a, b), a < 100 && b < 100);
  }
}

// --- End-to-end: the litmus catalogue with every row forced sparse ------------

TEST(RelationSparse, LitmusCatalogueAgreesUnderForcedSparse) {
  for (const litmus::Test& t : litmus::catalog()) {
    const lang::ParsedLitmus parsed = lang::parse_litmus(t.source);

    mc::ExploreOptions dpor;
    dpor.por = mc::PorMode::kSourceSetsSleep;
    mc::ExploreOptions optimal;
    optimal.por = mc::PorMode::kOptimalParsimonious;

    std::set<util::Fingerprint> fps_default;
    std::set<mc::Outcome> outs_default;
    bool verdict_default = false;
    {
      fps_default = mc::collect_final_executions(parsed.program, dpor);
      outs_default =
          mc::enumerate_outcomes(parsed.program, optimal).outcomes;
      verdict_default =
          mc::check_reachable(parsed.program, parsed.condition, dpor)
              .reachable;
    }

    const ThresholdGuard g(kForceSparse);
    EXPECT_EQ(mc::collect_final_executions(parsed.program, dpor),
              fps_default)
        << t.name << ": final fingerprints diverge under forced sparse";
    EXPECT_EQ(mc::enumerate_outcomes(parsed.program, optimal).outcomes,
              outs_default)
        << t.name << ": outcomes diverge under forced sparse";
    EXPECT_EQ(
        mc::check_reachable(parsed.program, parsed.condition, dpor).reachable,
        verdict_default)
        << t.name << ": verdict diverges under forced sparse";
  }
}

}  // namespace
}  // namespace rc11
