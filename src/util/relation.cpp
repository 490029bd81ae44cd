#include "util/relation.hpp"

#include <algorithm>
#include <sstream>

namespace rc11::util {

Relation::Relation(const Relation& o)
    : n_(o.n_),
      inverse_(o.inverse_),
      counted_(o.counted_),
      rows_(o.rows_.begin(), o.rows_.begin() + static_cast<std::ptrdiff_t>(o.n_)),
      indeg_(o.indeg_) {
  if (inverse_) {
    cols_.assign(o.cols_.begin(),
                 o.cols_.begin() + static_cast<std::ptrdiff_t>(o.n_));
  }
}

Relation& Relation::operator=(const Relation& o) {
  if (this == &o) return *this;
  n_ = o.n_;
  inverse_ = o.inverse_;
  counted_ = o.counted_;
  // assign() copy-assigns over the existing rows, so their storage is
  // reused (the per-transition Config copy of the tree engines).
  rows_.assign(o.rows_.begin(),
               o.rows_.begin() + static_cast<std::ptrdiff_t>(o.n_));
  if (inverse_) {
    cols_.assign(o.cols_.begin(),
                 o.cols_.begin() + static_cast<std::ptrdiff_t>(o.n_));
  } else {
    cols_.clear();
  }
  indeg_ = o.indeg_;
  return *this;
}

void Relation::resize(std::size_t n) {
  if (n < n_) {
    if (!inverse_ && !counted_) {
      indeg_.assign(n_, 0);
      for (std::size_t a = 0; a < n_; ++a) {
        rows_[a].for_each([&](std::size_t b) { ++indeg_[b]; });
      }
      counted_ = true;
    }
    for (std::size_t k = n_; k-- > n;) drop(k);
    n_ = n;
    if (counted_) indeg_.resize(n);
    return;
  }
  n_ = n;
  if (rows_.size() < n) rows_.resize(n);
  if (inverse_ && cols_.size() < n) cols_.resize(n);
  if (counted_) indeg_.resize(n, 0);
}

void Relation::drop(std::size_t k) {
  assert(k < n_);
  Bitset& row = rows_[k];
  if (inverse_) {
    row.for_each([&](std::size_t b) { cols_[b].reset(k); });
    row.clear();
    Bitset& col = cols_[k];
    col.for_each([&](std::size_t a) { rows_[a].reset(k); });
    col.clear();
    return;
  }
  row.for_each([&](std::size_t b) { --indeg_[b]; });
  row.clear();
  // Pairs into k: none when the caller removed them first; otherwise scan
  // for the counted number. Elements above k are already dropped.
  for (std::size_t a = 0, left = indeg_[k]; left != 0 && a < k; ++a) {
    if (contains(a, k)) {
      rows_[a].reset(k);
      --left;
    }
  }
  indeg_[k] = 0;
}

void Relation::enable_inverse() {
  if (inverse_) return;
  inverse_ = true;
  reindex();
}

void Relation::reindex() {
  counted_ = false;
  indeg_.clear();
  if (!inverse_) return;
  cols_.assign(n_, Bitset(n_));
  for (std::size_t a = 0; a < n_; ++a) {
    rows_[a].for_each([&](std::size_t b) { cols_[b].set(a); });
  }
}

Bitset Relation::column(std::size_t b) const {
  if (inverse_) return column_view(b);
  // O(n)-scan fallback — audited: no engine hot path lands here. The
  // incremental semantics keeps maintained inverses on hb/eco and reads
  // them through column_view(); mo predecessor queries scan only the
  // per-variable write set (Execution::push_event). This copy form is for
  // tests, diagnostics, and one-shot cold paths.
  Bitset out(n_);
  for (std::size_t a = 0; a < n_; ++a) {
    if (contains(a, b)) out.set(a);
  }
  return out;
}

std::size_t Relation::pair_count() const {
  std::size_t n = 0;
  for (std::size_t a = 0; a < n_; ++a) n += rows_[a].count();
  return n;
}

bool Relation::empty() const {
  for (std::size_t a = 0; a < n_; ++a) {
    if (!rows_[a].empty()) return false;
  }
  return true;
}

bool Relation::operator==(const Relation& o) const {
  if (n_ != o.n_) return false;
  for (std::size_t a = 0; a < n_; ++a) {
    const Bitset& x = rows_[a];
    const Bitset& y = o.rows_[a];
    if (x.size() == y.size()) {
      if (!(x == y)) return false;
      continue;
    }
    // Different widths hold the same bits below n_ and none above, so
    // widen a copy of the narrower row and compare.
    Bitset wide = x.size() < y.size() ? x : y;
    wide.resize(std::max(x.size(), y.size()));
    if (!(wide == (x.size() < y.size() ? y : x))) return false;
  }
  return true;
}

std::vector<std::pair<std::size_t, std::size_t>> Relation::pairs() const {
  std::vector<std::pair<std::size_t, std::size_t>> out;
  for (std::size_t a = 0; a < n_; ++a) {
    rows_[a].for_each([&](std::size_t b) { out.emplace_back(a, b); });
  }
  return out;
}

Relation& Relation::operator|=(const Relation& o) {
  fit_rows();
  o.fit_rows();
  for (std::size_t a = 0; a < n_; ++a) rows_[a] |= o.rows_[a];
  reindex();
  return *this;
}

Relation& Relation::operator&=(const Relation& o) {
  fit_rows();
  o.fit_rows();
  for (std::size_t a = 0; a < n_; ++a) rows_[a] &= o.rows_[a];
  reindex();
  return *this;
}

Relation& Relation::subtract(const Relation& o) {
  fit_rows();
  o.fit_rows();
  for (std::size_t a = 0; a < n_; ++a) rows_[a].subtract(o.rows_[a]);
  reindex();
  return *this;
}

Relation Relation::compose(const Relation& o) const {
  o.fit_rows();
  Relation out(n_);
  for (std::size_t a = 0; a < n_; ++a) {
    rows_[a].for_each([&](std::size_t b) { out.rows_[a] |= o.rows_[b]; });
  }
  return out;
}

Relation Relation::inverse_compose(const Relation& o) const {
  o.fit_rows();
  Relation out(n_);
  for (std::size_t a = 0; a < n_; ++a) {
    if (o.rows_[a].empty()) continue;
    rows_[a].for_each([&](std::size_t b) { out.rows_[b] |= o.rows_[a]; });
  }
  return out;
}

Relation Relation::inverse() const {
  Relation out(n_);
  for (std::size_t a = 0; a < n_; ++a) {
    rows_[a].for_each([&](std::size_t b) { out.rows_[b].set(a); });
  }
  return out;
}

Relation Relation::restrict_to(const Bitset& s) const {
  Relation out(n_);
  s.for_each([&](std::size_t a) {
    out.rows_[a] = row(a);
    out.rows_[a] &= s;
  });
  return out;
}

Relation Relation::transitive_closure() const {
  Relation out = *this;
  out.fit_rows();
  if (const auto order = topological_order()) {
    // Acyclic fast path (sb/hb/eco of consistent executions): sweep in
    // reverse topological order, so every direct successor's out-row is
    // already its full closure when it is OR-ed in — each row is
    // finalized by exactly one word-level union pass.
    for (auto it = order->rbegin(); it != order->rend(); ++it) {
      const std::size_t a = *it;
      rows_[a].for_each([&](std::size_t b) { out.rows_[a] |= out.rows_[b]; });
    }
    out.reindex();
    return out;
  }
  // Cyclic fallback: dirty-row worklist fixpoint. A pass only recomputes
  // rows adjacent to the previous pass's changed set; because that filter
  // is a heuristic (a row can transitively gain successors through a
  // stable neighbor), quiescence is certified by one full unfiltered pass,
  // repeating if the certification pass itself makes progress.
  Bitset changed(n_);
  changed.fill();
  Bitset next_changed(n_);
  Bitset next;  // scratch row, reused so the loop does not allocate
  while (true) {
    bool any = true;
    while (any) {
      any = false;
      next_changed.clear();
      for (std::size_t a = 0; a < n_; ++a) {
        if (out.rows_[a].disjoint(changed)) continue;
        next = out.rows_[a];
        out.rows_[a].for_each([&](std::size_t b) { next |= out.rows_[b]; });
        if (!(next == out.rows_[a])) {
          out.rows_[a] = next;
          next_changed.set(a);
          any = true;
        }
      }
      changed = next_changed;
    }
    bool clean = true;
    changed.clear();
    for (std::size_t a = 0; a < n_; ++a) {
      next = out.rows_[a];
      out.rows_[a].for_each([&](std::size_t b) { next |= out.rows_[b]; });
      if (!(next == out.rows_[a])) {
        out.rows_[a] = next;
        changed.set(a);
        clean = false;
      }
    }
    if (clean) break;
  }
  out.reindex();
  return out;
}

Relation Relation::reflexive_transitive_closure() const {
  Relation out = transitive_closure();
  out.add_identity();
  return out;
}

Relation Relation::reflexive_closure() const {
  Relation out = *this;
  out.add_identity();
  return out;
}

void Relation::add_identity() {
  for (std::size_t a = 0; a < n_; ++a) add(a, a);
}

void Relation::remove_identity() {
  for (std::size_t a = 0; a < n_; ++a) remove(a, a);
}

bool Relation::is_irreflexive() const {
  for (std::size_t a = 0; a < n_; ++a) {
    if (contains(a, a)) return false;
  }
  return true;
}

bool Relation::is_acyclic() const {
  // Kahn peeling succeeds exactly on acyclic graphs; this replaces the
  // old build-the-closure check, which was the validity-check hot spot.
  return topological_order().has_value();
}

bool Relation::is_strict_total_order_on(const Bitset& s) const {
  const Relation r = restrict_to(s);
  if (!r.is_irreflexive()) return false;
  // Transitivity: r;r must be contained in r.
  const Relation rr = r.compose(r);
  for (std::size_t a = 0; a < n_; ++a) {
    if (!rr.rows_[a].subset_of(r.rows_[a])) return false;
  }
  // Totality on s.
  std::vector<std::size_t> elems = s.elements();
  for (std::size_t i = 0; i < elems.size(); ++i) {
    for (std::size_t j = i + 1; j < elems.size(); ++j) {
      if (!r.contains(elems[i], elems[j]) && !r.contains(elems[j], elems[i])) {
        return false;
      }
    }
  }
  return true;
}

std::optional<std::vector<std::size_t>> Relation::topological_order() const {
  std::vector<std::size_t> indeg(n_, 0);
  for (std::size_t a = 0; a < n_; ++a) {
    rows_[a].for_each([&](std::size_t b) { ++indeg[b]; });
  }
  std::vector<std::size_t> ready;
  for (std::size_t a = 0; a < n_; ++a) {
    if (indeg[a] == 0) ready.push_back(a);
  }
  std::vector<std::size_t> out;
  out.reserve(n_);
  while (!ready.empty()) {
    const std::size_t a = ready.back();
    ready.pop_back();
    out.push_back(a);
    rows_[a].for_each([&](std::size_t b) {
      if (--indeg[b] == 0) ready.push_back(b);
    });
  }
  if (out.size() != n_) return std::nullopt;
  return out;
}

Bitset Relation::reachable_from(std::size_t a) const {
  Bitset seen(n_);
  std::vector<std::size_t> stack;
  rows_[a].for_each([&](std::size_t b) {
    seen.set(b);
    stack.push_back(b);
  });
  while (!stack.empty()) {
    const std::size_t b = stack.back();
    stack.pop_back();
    rows_[b].for_each([&](std::size_t c) {
      if (!seen.test(c)) {
        seen.set(c);
        stack.push_back(c);
      }
    });
  }
  return seen;
}

std::size_t Relation::hash() const {
  // Over the pairs, not Bitset::hash, which depends on each row's width.
  std::size_t h = 14695981039346656037ull ^ n_;
  for (std::size_t a = 0; a < n_; ++a) {
    rows_[a].for_each([&](std::size_t b) {
      h ^= a * 0x9e3779b97f4a7c15ull + b;
      h *= 1099511628211ull;
    });
    h ^= 0xff;
    h *= 1099511628211ull;
  }
  return h;
}

std::string Relation::to_string() const {
  std::ostringstream os;
  os << '{';
  bool sep = false;
  for (auto [a, b] : pairs()) {
    if (sep) os << ", ";
    os << '(' << a << ',' << b << ')';
    sep = true;
  }
  os << '}';
  return os.str();
}

}  // namespace rc11::util
