#include "util/bitset.hpp"

#include <sstream>

namespace rc11::util {

namespace {

// lower_bound over chunk indices; chunks are sorted by strictly
// increasing idx so binary search gives O(log chunks) membership.
template <typename Vec>
auto chunk_at(Vec& chunks, std::uint32_t idx) {
  return std::lower_bound(
      chunks.begin(), chunks.end(), idx,
      [](const auto& c, std::uint32_t k) { return c.idx < k; });
}

}  // namespace

void Bitset::set_capacity(std::size_t new_cap) {
  assert(!is_sparse());
  assert(new_cap > cap_);
  auto* mem = new std::uint64_t[new_cap];
  std::memcpy(mem, data(), nwords_ * sizeof(std::uint64_t));
  std::memset(mem + nwords_, 0, (new_cap - nwords_) * sizeof(std::uint64_t));
  if (on_heap()) delete[] store_.heap;
  store_.heap = mem;
  cap_ = static_cast<std::uint32_t>(new_cap);
}

void Bitset::to_sparse(std::size_t n) {
  assert(!is_sparse());
  assert(n >= size_);
  auto* chunks = new std::vector<Chunk>();
  const std::uint64_t* d = data();
  for (std::uint32_t k = 0; k < nwords_; ++k) {
    if (d[k] != 0) chunks->push_back({k, d[k]});
  }
  if (on_heap()) delete[] store_.heap;
  store_.sparse = chunks;
  cap_ = 0;
  size_ = n;
  nwords_ = static_cast<std::uint32_t>(words_for(n));
}

bool Bitset::sp_test(std::size_t i) const {
  const auto& chunks = *store_.sparse;
  const auto it = chunk_at(chunks, static_cast<std::uint32_t>(i >> 6));
  if (it == chunks.end() || it->idx != (i >> 6)) return false;
  return (it->word >> (i & 63)) & 1;
}

void Bitset::sp_set(std::size_t i) {
  auto& chunks = *store_.sparse;
  const auto k = static_cast<std::uint32_t>(i >> 6);
  const std::uint64_t bit = std::uint64_t{1} << (i & 63);
  const auto it = chunk_at(chunks, k);
  if (it != chunks.end() && it->idx == k) {
    it->word |= bit;
  } else {
    chunks.insert(it, {k, bit});
  }
}

void Bitset::sp_reset(std::size_t i) {
  auto& chunks = *store_.sparse;
  const auto k = static_cast<std::uint32_t>(i >> 6);
  const auto it = chunk_at(chunks, k);
  if (it == chunks.end() || it->idx != k) return;
  it->word &= ~(std::uint64_t{1} << (i & 63));
  if (it->word == 0) chunks.erase(it);
}

void Bitset::sp_fill() {
  auto& chunks = *store_.sparse;
  chunks.clear();
  chunks.reserve(nwords_);
  for (std::uint32_t k = 0; k < nwords_; ++k) {
    chunks.push_back({k, ~std::uint64_t{0}});
  }
  const std::size_t rem = size_ & 63;
  if (rem != 0 && !chunks.empty()) {
    chunks.back().word = (std::uint64_t{1} << rem) - 1;
    if (chunks.back().word == 0) chunks.pop_back();
  }
}

void Bitset::sp_resize(std::size_t n) {
  const std::size_t w = words_for(n);
  if (n >= size_) {
    // Grow is free: existing chunks stay valid, new bits are absent.
    size_ = n;
    nwords_ = static_cast<std::uint32_t>(w);
    return;
  }
  // Shrink: drop chunks past the new word count and mask the boundary
  // chunk so the canonical no-zero-chunk invariant holds for a re-grow.
  auto& chunks = *store_.sparse;
  while (!chunks.empty() && chunks.back().idx >= w) chunks.pop_back();
  const std::size_t rem = n & 63;
  if (rem != 0 && !chunks.empty() && chunks.back().idx == w - 1) {
    chunks.back().word &= (std::uint64_t{1} << rem) - 1;
    if (chunks.back().word == 0) chunks.pop_back();
  }
  size_ = n;
  nwords_ = static_cast<std::uint32_t>(w);
}

Bitset& Bitset::sp_assign(const Bitset& o) {
  // Adopt o's representation wholesale; when both sides are sparse the
  // vector assignment reuses our chunk capacity (the Config-copy path).
  if (is_sparse() && o.is_sparse()) {
    *store_.sparse = *o.store_.sparse;
  } else if (o.is_sparse()) {
    release_store();
    cap_ = 0;
    store_.sparse = new std::vector<Chunk>(*o.store_.sparse);
  } else {
    release_store();
    cap_ = kInlineWords;
    std::memset(store_.words, 0, sizeof(store_.words));
    nwords_ = 0;
    if (o.nwords_ > cap_) set_capacity(o.nwords_);
    std::memcpy(data(), o.data(), o.nwords_ * sizeof(std::uint64_t));
  }
  size_ = o.size_;
  nwords_ = o.nwords_;
  return *this;
}

Bitset& Bitset::sp_or(const Bitset& o) {
  if (!is_sparse()) {  // dense |= sparse: scatter o's chunks
    std::uint64_t* d = data();
    for (const Chunk& c : *o.store_.sparse) d[c.idx] |= c.word;
    return *this;
  }
  std::vector<Chunk>& a = *store_.sparse;
  std::vector<Chunk> out;
  if (o.is_sparse()) {
    const std::vector<Chunk>& b = *o.store_.sparse;
    if (b.empty()) return *this;
    out.reserve(a.size() + b.size());
    std::size_t i = 0, j = 0;
    while (i < a.size() && j < b.size()) {
      if (a[i].idx < b[j].idx) {
        out.push_back(a[i++]);
      } else if (b[j].idx < a[i].idx) {
        out.push_back(b[j++]);
      } else {
        out.push_back({a[i].idx, a[i].word | b[j].word});
        ++i;
        ++j;
      }
    }
    out.insert(out.end(), a.begin() + i, a.end());
    out.insert(out.end(), b.begin() + j, b.end());
  } else {  // sparse |= dense: merge o's nonzero words
    const std::uint64_t* s = o.data();
    out.reserve(a.size() + o.nwords_);
    std::size_t i = 0;
    for (std::uint32_t k = 0; k < o.nwords_; ++k) {
      while (i < a.size() && a[i].idx < k) out.push_back(a[i++]);
      std::uint64_t w = s[k];
      if (i < a.size() && a[i].idx == k) {
        w |= a[i].word;
        ++i;
      }
      if (w != 0) out.push_back({k, w});
    }
    out.insert(out.end(), a.begin() + i, a.end());
  }
  a = std::move(out);
  return *this;
}

Bitset& Bitset::sp_and(const Bitset& o) {
  if (!is_sparse()) {  // dense &= sparse: keep only o's chunk words
    std::uint64_t* d = data();
    const std::vector<Chunk>& b = *o.store_.sparse;
    std::size_t j = 0;
    for (std::uint32_t k = 0; k < nwords_; ++k) {
      while (j < b.size() && b[j].idx < k) ++j;
      d[k] = (j < b.size() && b[j].idx == k) ? (d[k] & b[j].word) : 0;
    }
    return *this;
  }
  // Sparse destination: intersection only removes chunks, so filter in
  // place with a write cursor (no allocation).
  std::vector<Chunk>& a = *store_.sparse;
  std::size_t w = 0;
  if (o.is_sparse()) {
    const std::vector<Chunk>& b = *o.store_.sparse;
    std::size_t j = 0;
    for (std::size_t i = 0; i < a.size(); ++i) {
      while (j < b.size() && b[j].idx < a[i].idx) ++j;
      if (j < b.size() && b[j].idx == a[i].idx) {
        const std::uint64_t word = a[i].word & b[j].word;
        if (word != 0) a[w++] = {a[i].idx, word};
      }
    }
  } else {
    const std::uint64_t* s = o.data();
    for (std::size_t i = 0; i < a.size(); ++i) {
      const std::uint64_t word = a[i].word & s[a[i].idx];
      if (word != 0) a[w++] = {a[i].idx, word};
    }
  }
  a.resize(w);
  return *this;
}

Bitset& Bitset::sp_xor(const Bitset& o) {
  if (!is_sparse()) {  // dense ^= sparse
    std::uint64_t* d = data();
    for (const Chunk& c : *o.store_.sparse) d[c.idx] ^= c.word;
    return *this;
  }
  std::vector<Chunk>& a = *store_.sparse;
  std::vector<Chunk> out;
  if (o.is_sparse()) {
    const std::vector<Chunk>& b = *o.store_.sparse;
    out.reserve(a.size() + b.size());
    std::size_t i = 0, j = 0;
    while (i < a.size() && j < b.size()) {
      if (a[i].idx < b[j].idx) {
        out.push_back(a[i++]);
      } else if (b[j].idx < a[i].idx) {
        out.push_back(b[j++]);
      } else {
        const std::uint64_t word = a[i].word ^ b[j].word;
        if (word != 0) out.push_back({a[i].idx, word});
        ++i;
        ++j;
      }
    }
    out.insert(out.end(), a.begin() + i, a.end());
    out.insert(out.end(), b.begin() + j, b.end());
  } else {
    const std::uint64_t* s = o.data();
    out.reserve(a.size() + o.nwords_);
    std::size_t i = 0;
    for (std::uint32_t k = 0; k < o.nwords_; ++k) {
      while (i < a.size() && a[i].idx < k) out.push_back(a[i++]);
      std::uint64_t w = s[k];
      if (i < a.size() && a[i].idx == k) {
        w ^= a[i].word;
        ++i;
      }
      if (w != 0) out.push_back({k, w});
    }
    out.insert(out.end(), a.begin() + i, a.end());
  }
  a = std::move(out);
  return *this;
}

Bitset& Bitset::sp_subtract(const Bitset& o) {
  if (!is_sparse()) {  // dense -= sparse
    std::uint64_t* d = data();
    for (const Chunk& c : *o.store_.sparse) d[c.idx] &= ~c.word;
    return *this;
  }
  // Difference only removes bits from the destination: in-place filter.
  std::vector<Chunk>& a = *store_.sparse;
  std::size_t w = 0;
  if (o.is_sparse()) {
    const std::vector<Chunk>& b = *o.store_.sparse;
    std::size_t j = 0;
    for (std::size_t i = 0; i < a.size(); ++i) {
      while (j < b.size() && b[j].idx < a[i].idx) ++j;
      std::uint64_t word = a[i].word;
      if (j < b.size() && b[j].idx == a[i].idx) word &= ~b[j].word;
      if (word != 0) a[w++] = {a[i].idx, word};
    }
  } else {
    const std::uint64_t* s = o.data();
    for (std::size_t i = 0; i < a.size(); ++i) {
      const std::uint64_t word = a[i].word & ~s[a[i].idx];
      if (word != 0) a[w++] = {a[i].idx, word};
    }
  }
  a.resize(w);
  return *this;
}

bool Bitset::sp_equal(const Bitset& o) const {
  if (is_sparse() && o.is_sparse()) {
    return *store_.sparse == *o.store_.sparse;
  }
  // Mixed: walk the dense words against the sparse chunks; every zero
  // dense word must lack a chunk and vice versa.
  const Bitset& sp = is_sparse() ? *this : o;
  const Bitset& dn = is_sparse() ? o : *this;
  const std::vector<Chunk>& chunks = *sp.store_.sparse;
  const std::uint64_t* d = dn.data();
  std::size_t j = 0;
  for (std::uint32_t k = 0; k < dn.nwords_; ++k) {
    const bool has = j < chunks.size() && chunks[j].idx == k;
    if (d[k] != (has ? chunks[j].word : 0)) return false;
    if (has) ++j;
  }
  return j == chunks.size();
}

bool Bitset::sp_disjoint(const Bitset& o) const {
  if (is_sparse() && o.is_sparse()) {
    const std::vector<Chunk>& a = *store_.sparse;
    const std::vector<Chunk>& b = *o.store_.sparse;
    std::size_t i = 0, j = 0;
    while (i < a.size() && j < b.size()) {
      if (a[i].idx < b[j].idx) {
        ++i;
      } else if (b[j].idx < a[i].idx) {
        ++j;
      } else {
        if ((a[i].word & b[j].word) != 0) return false;
        ++i;
        ++j;
      }
    }
    return true;
  }
  const Bitset& sp = is_sparse() ? *this : o;
  const Bitset& dn = is_sparse() ? o : *this;
  const std::uint64_t* d = dn.data();
  for (const Chunk& c : *sp.store_.sparse) {
    if ((d[c.idx] & c.word) != 0) return false;
  }
  return true;
}

bool Bitset::sp_subset_of(const Bitset& o) const {
  if (is_sparse()) {
    // Every chunk of this must be covered by o's corresponding word.
    for (const Chunk& c : *store_.sparse) {
      const std::uint64_t cover =
          o.is_sparse()
              ? [&]() -> std::uint64_t {
                  const auto& b = *o.store_.sparse;
                  const auto it = chunk_at(b, c.idx);
                  return (it != b.end() && it->idx == c.idx) ? it->word : 0;
                }()
              : o.data()[c.idx];
      if ((c.word & ~cover) != 0) return false;
    }
    return true;
  }
  // Dense subset-of sparse: every nonzero dense word needs a covering chunk.
  const std::uint64_t* d = data();
  const std::vector<Chunk>& b = *o.store_.sparse;
  std::size_t j = 0;
  for (std::uint32_t k = 0; k < nwords_; ++k) {
    if (d[k] == 0) continue;
    while (j < b.size() && b[j].idx < k) ++j;
    const std::uint64_t cover = (j < b.size() && b[j].idx == k) ? b[j].word : 0;
    if ((d[k] & ~cover) != 0) return false;
  }
  return true;
}

std::size_t Bitset::count() const {
  if (is_sparse()) {
    std::size_t n = 0;
    for (const Chunk& c : *store_.sparse) {
      n += static_cast<std::size_t>(__builtin_popcountll(c.word));
    }
    return n;
  }
  const std::uint64_t* d = data();
  std::size_t n = 0;
  for (std::uint32_t k = 0; k < nwords_; ++k) {
    n += static_cast<std::size_t>(__builtin_popcountll(d[k]));
  }
  return n;
}

std::size_t Bitset::first() const {
  if (is_sparse()) {
    const std::vector<Chunk>& chunks = *store_.sparse;
    if (chunks.empty()) return size_;
    return chunks.front().idx * std::size_t{64} +
           static_cast<std::size_t>(__builtin_ctzll(chunks.front().word));
  }
  const std::uint64_t* d = data();
  for (std::uint32_t k = 0; k < nwords_; ++k) {
    if (d[k] != 0) {
      return k * std::size_t{64} +
             static_cast<std::size_t>(__builtin_ctzll(d[k]));
    }
  }
  return size_;
}

std::size_t Bitset::last() const {
  if (is_sparse()) {
    const std::vector<Chunk>& chunks = *store_.sparse;
    if (chunks.empty()) return size_;
    return chunks.back().idx * std::size_t{64} + 63 -
           static_cast<std::size_t>(__builtin_clzll(chunks.back().word));
  }
  const std::uint64_t* d = data();
  for (std::uint32_t k = nwords_; k-- > 0;) {
    if (d[k] != 0) {
      return k * std::size_t{64} + 63 -
             static_cast<std::size_t>(__builtin_clzll(d[k]));
    }
  }
  return size_;
}

std::size_t Bitset::next(std::size_t i) const {
  ++i;
  if (i >= size_) return size_;
  if (is_sparse()) {
    const std::vector<Chunk>& chunks = *store_.sparse;
    const auto k = static_cast<std::uint32_t>(i >> 6);
    auto it = chunk_at(chunks, k);
    if (it != chunks.end() && it->idx == k) {
      const std::uint64_t w = it->word & (~std::uint64_t{0} << (i & 63));
      if (w != 0) {
        return it->idx * std::size_t{64} +
               static_cast<std::size_t>(__builtin_ctzll(w));
      }
      ++it;
    }
    if (it == chunks.end()) return size_;
    return it->idx * std::size_t{64} +
           static_cast<std::size_t>(__builtin_ctzll(it->word));
  }
  const std::uint64_t* d = data();
  std::size_t k = i >> 6;
  std::uint64_t w = d[k] & (~std::uint64_t{0} << (i & 63));
  while (true) {
    if (w != 0) {
      return k * 64 + static_cast<std::size_t>(__builtin_ctzll(w));
    }
    if (++k == nwords_) return size_;
    w = d[k];
  }
}

std::vector<std::size_t> Bitset::elements() const {
  std::vector<std::size_t> out;
  out.reserve(count());
  for_each([&](std::size_t i) { out.push_back(i); });
  return out;
}

std::size_t Bitset::hash() const {
  std::size_t h = 1469598103934665603ull ^ size_;
  const auto mix = [&h](std::size_t k, std::uint64_t w) {
    h ^= k * 0x9e3779b97f4a7c15ull;
    h *= 1099511628211ull;
    h ^= static_cast<std::size_t>(w);
    h *= 1099511628211ull;
  };
  if (is_sparse()) {
    for (const Chunk& c : *store_.sparse) mix(c.idx, c.word);
  } else {
    const std::uint64_t* d = data();
    for (std::uint32_t k = 0; k < nwords_; ++k) {
      if (d[k] != 0) mix(k, d[k]);
    }
  }
  return h;
}

std::string Bitset::to_string() const {
  std::ostringstream os;
  os << '{';
  bool sep = false;
  for_each([&](std::size_t i) {
    if (sep) os << ", ";
    os << i;
    sep = true;
  });
  os << '}';
  return os.str();
}

}  // namespace rc11::util
