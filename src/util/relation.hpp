// Binary relations over a dense universe {0, ..., n-1}.
//
// A Relation is an adjacency-matrix of Bitset rows. This is the workhorse of
// the C11 semantics: sb, rf, mo and all derived relations (sw, hb, fr, eco)
// are Relations, and validity checking reduces to closure / irreflexivity /
// totality queries on them.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "util/bitset.hpp"

namespace rc11::util {

/// A binary relation R over {0..n-1}; row i is the set { j | (i,j) in R }.
///
/// Rows (and mirror columns) are sized lazily. The relation keeps one
/// universe size n; a stored row may be narrower or wider than n and is
/// brought up to n only when it is next touched, so growing or shrinking
/// the universe does not walk every row. Invariant: no stored row, mirror
/// column or spare row holds a bit at an index >= n. A narrower row
/// therefore lacks only absent pairs, and a wider one only zero bits.
///
/// Thread safety. The accessors that hand out a row or column by reference
/// (row, column_view) and the bulk operations that read rows through them
/// bring the row to size first, writing through mutable storage; contains,
/// pairs, pair_count, empty, operator==, hash and copying never write. So a
/// relation is safe to read from several threads only through the
/// non-writing group. In this library no execution is read by several
/// threads at once: the DPOR engine and the parallel explorer keep
/// configurations only on per-worker cursors, so every row read runs on a
/// Config that one worker owns.
class Relation {
 public:
  Relation() = default;

  /// Empty relation over an n-element universe.
  explicit Relation(std::size_t n) : n_(n), rows_(n, Bitset(n)) {}

  /// Copies carry only the live rows (no spare rows); row widths are
  /// copied as they are.
  Relation(const Relation& o);
  Relation& operator=(const Relation& o);
  Relation(Relation&&) noexcept = default;
  Relation& operator=(Relation&&) noexcept = default;

  [[nodiscard]] std::size_t size() const { return n_; }

  /// Resizes the universe to n elements, preserving the pairs whose
  /// endpoints survive. Growing costs O(1) amortized per element: new
  /// elements get spare rows (or fresh empty ones) that are sized when
  /// first touched. Shrinking clears only the dropped elements' pairs: with
  /// the inverse maintained both sides are found through it; without it,
  /// out-pairs come from the element's own row and in-pairs through a
  /// per-column in-degree, kept from the relation's first shrink on (which
  /// counts once), so a column the caller has already emptied costs
  /// nothing and only a nonempty one is scanned for. Dropped rows stay
  /// allocated as spare rows for the next grow.
  void resize(std::size_t n);

  /// Makes room for a universe of n elements, so growing to it allocates
  /// no row vector (copies do not carry the room). Does not change size().
  void reserve(std::size_t n) {
    rows_.reserve(n);
    if (inverse_) cols_.reserve(n);
  }

  [[nodiscard]] bool contains(std::size_t a, std::size_t b) const {
    assert(a < n_ && b < n_);
    const Bitset& r = rows_[a];
    return b < r.size() && r.test(b);
  }

  void add(std::size_t a, std::size_t b) {
    Bitset& r = fit(rows_[a]);
    if (counted_) {
      if (r.test(b)) return;
      ++indeg_[b];
    }
    r.set(b);
    if (inverse_) fit(cols_[b]).set(a);
  }
  void remove(std::size_t a, std::size_t b) {
    if (!contains(a, b)) return;
    rows_[a].reset(b);
    if (inverse_) {
      cols_[b].reset(a);
    } else if (counted_) {
      --indeg_[b];
    }
  }

  /// Batch column write: adds (a, b) for every a in `as` (a Bitset over
  /// the same universe). With the inverse maintained, the mirror update is
  /// a single word-level union instead of one set() per predecessor.
  void add_to_column(std::size_t b, const Bitset& as) {
    if (inverse_) {
      as.for_each([&](std::size_t a) { fit(rows_[a]).set(b); });
      fit(cols_[b]) |= as;
      return;
    }
    as.for_each([&](std::size_t a) { add(a, b); });
  }

  /// Batch row write: adds (a, b) for every b in `bs` — the row side is a
  /// single word-level union.
  void add_to_row(std::size_t a, const Bitset& bs) {
    Bitset& r = fit(rows_[a]);
    if (inverse_) {
      bs.for_each([&](std::size_t b) { fit(cols_[b]).set(a); });
    } else if (counted_) {
      bs.for_each([&](std::size_t b) {
        if (!r.test(b)) ++indeg_[b];
      });
    }
    r |= bs;
  }

  /// Row a: successors of a, brought to the universe size (see the
  /// thread-safety note above).
  [[nodiscard]] const Bitset& row(std::size_t a) const {
    assert(a < n_);
    return fit(rows_[a]);
  }

  /// Column b: predecessors of b (O(n) scan, or a copy of the maintained
  /// inverse row when enabled). Hot paths must enable_inverse() and use
  /// column_view() instead — the scan form is for tests and cold
  /// diagnostics only (see the audit note in relation.cpp).
  [[nodiscard]] Bitset column(std::size_t b) const;

  // --- Maintained inverse ---------------------------------------------------
  //
  // With the inverse enabled the relation keeps a column mirror updated by
  // add/remove/resize (bulk mutators rebuild it), so predecessor queries on
  // the observability hot path are O(1) row accesses instead of O(n) scans.

  void enable_inverse();
  [[nodiscard]] bool inverse_enabled() const { return inverse_; }

  /// Column b as a view of the maintained mirror, brought to the universe
  /// size; requires enable_inverse().
  [[nodiscard]] const Bitset& column_view(std::size_t b) const {
    assert(inverse_ && b < n_);
    return fit(cols_[b]);
  }

  /// Heap bytes held by all row (and mirror column) representations —
  /// dense-vs-sparse footprint comparisons in benches.
  [[nodiscard]] std::size_t storage_bytes() const {
    std::size_t b = (rows_.capacity() + cols_.capacity()) * sizeof(Bitset) +
                    indeg_.capacity() * sizeof(std::uint32_t);
    for (const Bitset& r : rows_) b += r.storage_bytes();
    for (const Bitset& c : cols_) b += c.storage_bytes();
    return b;
  }

  /// Number of pairs.
  [[nodiscard]] std::size_t pair_count() const;

  [[nodiscard]] bool empty() const;

  /// All pairs (a, b) in lexicographic order.
  [[nodiscard]] std::vector<std::pair<std::size_t, std::size_t>> pairs() const;

  /// Union, intersection, difference, composition, inverse.
  Relation& operator|=(const Relation& o);
  Relation& operator&=(const Relation& o);
  Relation& subtract(const Relation& o);
  friend Relation operator|(Relation a, const Relation& b) { return a |= b; }
  friend Relation operator&(Relation a, const Relation& b) { return a &= b; }

  /// Relational composition this ; o = { (a,c) | ex b. aRb and bOc }.
  [[nodiscard]] Relation compose(const Relation& o) const;

  /// this^{-1} ; o = { (b,c) | ex a. aRb and aOc }, computed as a
  /// predecessor join over rows without materializing the inverse: for
  /// every pair (a,b) of this, o's row a is OR-ed into the output row b
  /// in one word-level sweep. This is the fr = rf^{-1};mo kernel.
  [[nodiscard]] Relation inverse_compose(const Relation& o) const;

  [[nodiscard]] Relation inverse() const;

  /// Restriction to a subset S of the universe (same universe size;
  /// pairs with an endpoint outside S are dropped).
  [[nodiscard]] Relation restrict_to(const Bitset& s) const;

  /// Transitive closure R+. Acyclic inputs (the common case: sb, hb, eco
  /// of consistent executions) take a one-pass reverse-topological sweep;
  /// cyclic inputs fall back to a dirty-row worklist fixpoint certified by
  /// a full pass.
  [[nodiscard]] Relation transitive_closure() const;

  /// Reflexive-transitive closure R*.
  [[nodiscard]] Relation reflexive_transitive_closure() const;

  /// Reflexive closure R?.
  [[nodiscard]] Relation reflexive_closure() const;

  /// Adds the identity pairs in place.
  void add_identity();

  /// Removes the identity pairs in place.
  void remove_identity();

  [[nodiscard]] bool is_irreflexive() const;

  /// True iff there is no cycle (Kahn peeling; no closure is built).
  [[nodiscard]] bool is_acyclic() const;

  /// True iff the restriction of R to S is a strict total order on S,
  /// i.e. irreflexive, transitive, and any two distinct elements of S
  /// are related one way or the other.
  [[nodiscard]] bool is_strict_total_order_on(const Bitset& s) const;

  /// A topological ordering of the universe consistent with R, or
  /// std::nullopt if R is cyclic. Only elements related by R constrain the
  /// order; all universe elements appear in the result.
  [[nodiscard]] std::optional<std::vector<std::size_t>> topological_order()
      const;

  /// Successors of a under the transitive closure, computed by BFS from a
  /// without building the full closure (used for reachability queries).
  [[nodiscard]] Bitset reachable_from(std::size_t a) const;

  /// Equal universes and pairs (row widths do not matter).
  [[nodiscard]] bool operator==(const Relation& o) const;

  [[nodiscard]] std::size_t hash() const;

  /// Renders e.g. "{(0,1), (2,3)}".
  [[nodiscard]] std::string to_string() const;

 private:
  /// Brings a stored row or column to the universe size.
  Bitset& fit(Bitset& r) const {
    if (r.size() != n_) r.resize(n_);
    return r;
  }

  /// Brings every live row to the universe size (bulk kernels).
  void fit_rows() const {
    for (std::size_t a = 0; a < n_; ++a) fit(rows_[a]);
  }

  /// Clears every pair incident to element k, the top of the universe.
  void drop(std::size_t k);

  /// Rebuilds the mirror columns (inverse on), or stops the in-degree
  /// count (inverse off), after a bulk write to the rows.
  void reindex();

  std::size_t n_ = 0;
  bool inverse_ = false;
  /// indeg_ holds the in-degree of every column. A relation without an
  /// inverse starts counting at its first shrink, so relations that only
  /// grow (every copy-only tree-engine Config, every derived relation)
  /// carry no counts; bulk writes stop the count until the next shrink.
  bool counted_ = false;
  /// rows_.size() >= n_ (and cols_.size() >= n_ with the inverse); entries
  /// past n_ are empty spare rows. Mutable: see the thread-safety note.
  mutable std::vector<Bitset> rows_;
  mutable std::vector<Bitset> cols_;  ///< column mirror, maintained when inverse_
  std::vector<std::uint32_t> indeg_;  ///< in-degree per column, if counted_
};

}  // namespace rc11::util
