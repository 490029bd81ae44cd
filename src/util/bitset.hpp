// Hybrid dense/sparse dynamic bitset used as the backbone of event sets and
// relation rows.
//
// The model checker manipulates sets of events (encountered writes,
// observable writes, relation rows) thousands of times per explored state,
// so the representation is word-level set algebra with a *small-buffer
// optimization*: universes of up to 128 elements (every litmus-scale
// execution) live in two inline words and never touch the heap. This is
// what makes a Config clone — the one copy the incremental explorers still
// take per executed transition (DPOR tree nodes, parallel frontier
// handoff) — a flat memcpy-like operation instead of ~100 small
// allocations.
//
// Larger universes are hybrid: up to `sparse_threshold_words()` 64-bit
// words (default 8, i.e. 512 elements) the set stays a dense heap array;
// past that it switches to a *chunked sparse* form — a sorted vector of
// (word-index, 64-bit word) pairs holding only the nonzero words. The
// rf/mo/sw rows of large executions are mostly empty (a read has one rf
// predecessor; mo is per-location), so sparse rows turn the dense O(n/64)
// sweeps and O(n/8) bytes per row into O(popcount-ish) work and memory.
// The switch happens when a grow crosses the threshold (or at construction
// past it); a sparse set stays sparse on shrink so the shrink/regrow cycle
// of the incremental engine's undo path does not thrash representations.
// All observable behavior (membership, iteration order, equality, hash) is
// representation-independent.
//
// All operations that combine two bitsets require equal size; this is
// asserted in debug builds. Mixed-representation operands are handled
// natively (no conversion). In dense form, words at index >= active count
// are kept zero; in sparse form, stored words are nonzero and chunk
// indices are strictly increasing — both invariants make equality and
// hashing canonical.
#pragma once

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

namespace rc11::util {

/// A fixed-universe set of small integers backed by 64-bit words.
class Bitset {
 public:
  Bitset() = default;

  /// Constructs an empty set over the universe {0, ..., n-1}.
  explicit Bitset(std::size_t n) : size_(n) {
    const std::size_t w = words_for(n);
    // nwords_ must still be 0 while set_capacity copies the (empty) old
    // contents; adopt the word count only after storage is in place.
    if (w > sparse_threshold_words()) {
      cap_ = 0;
      store_.sparse = new std::vector<Chunk>();
    } else if (w > kInlineWords) {
      set_capacity(w);
    }
    nwords_ = static_cast<std::uint32_t>(w);
  }

  Bitset(const Bitset& o) : size_(o.size_) {
    if (o.is_sparse()) {
      cap_ = 0;
      store_.sparse = new std::vector<Chunk>(*o.store_.sparse);
      nwords_ = o.nwords_;
      return;
    }
    // nwords_ must still be 0 while set_capacity copies the (empty) old
    // contents; only then adopt the source's word count.
    if (o.nwords_ > kInlineWords) set_capacity(o.nwords_);
    nwords_ = o.nwords_;
    std::memcpy(data(), o.data(), nwords_ * sizeof(std::uint64_t));
  }

  Bitset(Bitset&& o) noexcept : size_(o.size_), nwords_(o.nwords_) {
    if (o.is_sparse() || o.on_heap()) {
      store_ = o.store_;
      cap_ = o.cap_;
      o.cap_ = kInlineWords;
      o.size_ = 0;
      o.nwords_ = 0;
      std::memset(o.store_.words, 0, sizeof(o.store_.words));
    } else {
      std::memcpy(store_.words, o.store_.words, sizeof(store_.words));
    }
  }

  Bitset& operator=(const Bitset& o) {
    if (this == &o) return *this;
    if (is_sparse() || o.is_sparse()) return sp_assign(o);
    if (o.nwords_ > cap_) set_capacity(o.nwords_);
    std::uint64_t* d = data();
    std::memcpy(d, o.data(), o.nwords_ * sizeof(std::uint64_t));
    // Keep the zero-tail invariant for our (possibly larger) capacity.
    if (nwords_ > o.nwords_) {
      std::memset(d + o.nwords_, 0,
                  (nwords_ - o.nwords_) * sizeof(std::uint64_t));
    }
    size_ = o.size_;
    nwords_ = o.nwords_;
    return *this;
  }

  Bitset& operator=(Bitset&& o) noexcept {
    if (this == &o) return *this;
    if (o.is_sparse() || o.on_heap()) {
      release_store();
      store_ = o.store_;
      cap_ = o.cap_;
      size_ = o.size_;
      nwords_ = o.nwords_;
      o.cap_ = kInlineWords;
      o.size_ = 0;
      o.nwords_ = 0;
      std::memset(o.store_.words, 0, sizeof(o.store_.words));
    } else {
      *this = o;  // inline source: plain copy (cheap)
    }
    return *this;
  }

  ~Bitset() { release_store(); }

  /// Number of elements in the universe (not the population count).
  [[nodiscard]] std::size_t size() const { return size_; }

  /// True iff the set uses the chunked sparse representation.
  [[nodiscard]] bool is_sparse() const { return cap_ == 0; }

  /// Word-count threshold above which a *growing* set switches to the
  /// sparse representation (a sparse set never switches back on shrink).
  static std::size_t sparse_threshold_words() {
    return sparse_threshold_words_.load(std::memory_order_relaxed);
  }

  /// Sets the global switch-over threshold. 0 forces every nonempty
  /// universe sparse; a huge value forces dense. Affects representation
  /// decisions made after the call only — observable behavior is
  /// representation-independent, so tests/benches may flip this freely.
  static void set_sparse_threshold_words(std::size_t w) {
    sparse_threshold_words_.store(static_cast<std::uint32_t>(
                                      std::min<std::size_t>(w, 0xffffffffu)),
                                  std::memory_order_relaxed);
  }

  /// Resizes the universe to n elements, preserving membership of the
  /// surviving elements; dropped bits are cleared so a later re-grow sees
  /// zeros. Storage is kept on shrink (no reallocation on regrow).
  void resize(std::size_t n) {
    if (is_sparse()) {
      sp_resize(n);
      return;
    }
    const std::size_t w = words_for(n);
    if (n >= size_) {
      // Grow: bits at index >= size_ are zero by invariant, so no masking
      // or zeroing is needed (this is the per-append fast path).
      if (w > sparse_threshold_words()) {
        to_sparse(n);
        return;
      }
      if (w > cap_) {
        set_capacity(std::max(w, 2 * static_cast<std::size_t>(cap_)));
      }
      nwords_ = static_cast<std::uint32_t>(w);
      size_ = n;
      return;
    }
    // Shrink: clear the dropped suffix so a later re-grow sees zeros.
    std::uint64_t* d = data();
    if (w < nwords_) {
      std::memset(d + w, 0, (nwords_ - w) * sizeof(std::uint64_t));
    }
    nwords_ = static_cast<std::uint32_t>(w);
    size_ = n;
    trim();
  }

  /// Pre-allocates word storage for a universe of n elements without
  /// changing the logical size. No-op for sparse sets and for targets past
  /// the sparse threshold (growth to such sizes converts to sparse, so a
  /// dense allocation would be wasted).
  void reserve(std::size_t n) {
    if (is_sparse()) return;
    const std::size_t w = words_for(n);
    if (w > sparse_threshold_words()) return;
    if (w > cap_) set_capacity(w);
  }

  [[nodiscard]] bool test(std::size_t i) const {
    assert(i < size_);
    if (is_sparse()) return sp_test(i);
    return (data()[i >> 6] >> (i & 63)) & 1;
  }

  void set(std::size_t i) {
    assert(i < size_);
    if (is_sparse()) {
      sp_set(i);
      return;
    }
    data()[i >> 6] |= std::uint64_t{1} << (i & 63);
  }

  void reset(std::size_t i) {
    assert(i < size_);
    if (is_sparse()) {
      sp_reset(i);
      return;
    }
    data()[i >> 6] &= ~(std::uint64_t{1} << (i & 63));
  }

  void assign(std::size_t i, bool value) {
    if (value) {
      set(i);
    } else {
      reset(i);
    }
  }

  /// Removes all elements.
  void clear() {
    if (is_sparse()) {
      store_.sparse->clear();
      return;
    }
    std::memset(data(), 0, nwords_ * sizeof(std::uint64_t));
  }

  /// Adds all elements of the universe.
  void fill() {
    if (is_sparse()) {
      sp_fill();
      return;
    }
    std::uint64_t* d = data();
    for (std::uint32_t k = 0; k < nwords_; ++k) d[k] = ~std::uint64_t{0};
    trim();
  }

  [[nodiscard]] bool empty() const {
    if (is_sparse()) return store_.sparse->empty();
    const std::uint64_t* d = data();
    for (std::uint32_t k = 0; k < nwords_; ++k) {
      if (d[k] != 0) return false;
    }
    return true;
  }

  /// Heap bytes held by the current representation (0 when the dense form
  /// fits the inline words). Diagnostics / dense-vs-sparse footprint
  /// benches; not part of the value semantics.
  [[nodiscard]] std::size_t storage_bytes() const {
    if (is_sparse()) {
      return sizeof(*store_.sparse) +
             store_.sparse->capacity() * sizeof(Chunk);
    }
    return on_heap() ? cap_ * sizeof(std::uint64_t) : 0;
  }

  /// Population count.
  [[nodiscard]] std::size_t count() const;

  /// Index of the lowest set bit, or size() if empty.
  [[nodiscard]] std::size_t first() const;

  /// Index of the lowest set bit strictly greater than i, or size() if none.
  [[nodiscard]] std::size_t next(std::size_t i) const;

  /// Index of the highest set bit, or size() if empty.
  [[nodiscard]] std::size_t last() const;

  Bitset& operator|=(const Bitset& o) {
    assert(size_ == o.size_);
    if (is_sparse() || o.is_sparse()) return sp_or(o);
    std::uint64_t* d = data();
    const std::uint64_t* s = o.data();
    for (std::uint32_t k = 0; k < nwords_; ++k) d[k] |= s[k];
    return *this;
  }

  Bitset& operator&=(const Bitset& o) {
    assert(size_ == o.size_);
    if (is_sparse() || o.is_sparse()) return sp_and(o);
    std::uint64_t* d = data();
    const std::uint64_t* s = o.data();
    for (std::uint32_t k = 0; k < nwords_; ++k) d[k] &= s[k];
    return *this;
  }

  Bitset& operator^=(const Bitset& o) {
    assert(size_ == o.size_);
    if (is_sparse() || o.is_sparse()) return sp_xor(o);
    std::uint64_t* d = data();
    const std::uint64_t* s = o.data();
    for (std::uint32_t k = 0; k < nwords_; ++k) d[k] ^= s[k];
    return *this;
  }

  /// Set difference: removes every element of o from this set.
  Bitset& subtract(const Bitset& o) {
    assert(size_ == o.size_);
    if (is_sparse() || o.is_sparse()) return sp_subtract(o);
    std::uint64_t* d = data();
    const std::uint64_t* s = o.data();
    for (std::uint32_t k = 0; k < nwords_; ++k) d[k] &= ~s[k];
    return *this;
  }

  friend Bitset operator|(Bitset a, const Bitset& b) { return a |= b; }
  friend Bitset operator&(Bitset a, const Bitset& b) { return a &= b; }

  [[nodiscard]] bool operator==(const Bitset& o) const {
    if (size_ != o.size_) return false;
    if (is_sparse() || o.is_sparse()) return sp_equal(o);
    return std::memcmp(data(), o.data(), nwords_ * sizeof(std::uint64_t)) ==
           0;
  }

  /// True iff this set and o share no element.
  [[nodiscard]] bool disjoint(const Bitset& o) const {
    assert(size_ == o.size_);
    if (is_sparse() || o.is_sparse()) return sp_disjoint(o);
    const std::uint64_t* d = data();
    const std::uint64_t* s = o.data();
    for (std::uint32_t k = 0; k < nwords_; ++k) {
      if ((d[k] & s[k]) != 0) return false;
    }
    return true;
  }

  /// True iff every element of this set is in o.
  [[nodiscard]] bool subset_of(const Bitset& o) const {
    assert(size_ == o.size_);
    if (is_sparse() || o.is_sparse()) return sp_subset_of(o);
    const std::uint64_t* d = data();
    const std::uint64_t* s = o.data();
    for (std::uint32_t k = 0; k < nwords_; ++k) {
      if ((d[k] & ~s[k]) != 0) return false;
    }
    return true;
  }

  /// Members in increasing order.
  [[nodiscard]] std::vector<std::size_t> elements() const;

  /// Calls f(i) for each member i in increasing order.
  template <typename F>
  void for_each(F&& f) const {
    if (is_sparse()) {
      for (const Chunk& c : *store_.sparse) {
        std::uint64_t w = c.word;
        while (w != 0) {
          const int b = __builtin_ctzll(w);
          f(c.idx * std::size_t{64} + static_cast<std::size_t>(b));
          w &= w - 1;
        }
      }
      return;
    }
    const std::uint64_t* d = data();
    for (std::uint32_t k = 0; k < nwords_; ++k) {
      std::uint64_t w = d[k];
      while (w != 0) {
        const int b = __builtin_ctzll(w);
        f(k * std::size_t{64} + static_cast<std::size_t>(b));
        w &= w - 1;
      }
    }
  }

  /// FNV-style hash of the contents (size-sensitive). Only nonzero words
  /// contribute, keyed by their index, so the value is independent of the
  /// dense/sparse representation.
  [[nodiscard]] std::size_t hash() const;

  /// Renders e.g. "{0, 3, 17}".
  [[nodiscard]] std::string to_string() const;

 private:
  static constexpr std::uint32_t kInlineWords = 2;  // 128-element universes
  static constexpr std::uint32_t kDefaultSparseThresholdWords = 8;  // 512 bits

  /// A nonzero 64-bit word of the set at word index idx (bit i of the set
  /// lives in chunk idx == i/64). Sparse storage is a vector of these,
  /// sorted by strictly increasing idx.
  struct Chunk {
    std::uint32_t idx;
    std::uint64_t word;
    friend bool operator==(const Chunk&, const Chunk&) = default;
  };

  static constexpr std::size_t words_for(std::size_t n) {
    return (n + 63) / 64;
  }

  [[nodiscard]] bool on_heap() const { return cap_ > kInlineWords; }

  [[nodiscard]] const std::uint64_t* data() const {
    assert(!is_sparse());
    return on_heap() ? store_.heap : store_.words;
  }
  [[nodiscard]] std::uint64_t* data() {
    assert(!is_sparse());
    return on_heap() ? store_.heap : store_.words;
  }

  void release_store() {
    if (on_heap()) {
      delete[] store_.heap;
    } else if (is_sparse()) {
      delete store_.sparse;
    }
  }

  /// Moves to a heap array of new_cap words (strictly growing), keeping
  /// the zero-tail invariant. Dense form only.
  void set_capacity(std::size_t new_cap);

  /// Converts dense -> sparse as part of growing the universe to n bits.
  void to_sparse(std::size_t n);

  // Out-of-line sparse / mixed-representation paths.
  [[nodiscard]] bool sp_test(std::size_t i) const;
  void sp_set(std::size_t i);
  void sp_reset(std::size_t i);
  void sp_fill();
  void sp_resize(std::size_t n);
  Bitset& sp_assign(const Bitset& o);
  Bitset& sp_or(const Bitset& o);
  Bitset& sp_and(const Bitset& o);
  Bitset& sp_xor(const Bitset& o);
  Bitset& sp_subtract(const Bitset& o);
  [[nodiscard]] bool sp_equal(const Bitset& o) const;
  [[nodiscard]] bool sp_disjoint(const Bitset& o) const;
  [[nodiscard]] bool sp_subset_of(const Bitset& o) const;

  // Zeroes bits beyond size_ in the last word so equality/hash are
  // canonical; words at index >= nwords_ are kept zero by all mutators.
  // Dense form only (sparse mutators mask chunks directly).
  void trim() {
    assert(!is_sparse());
    const std::size_t rem = size_ & 63;
    if (rem != 0 && nwords_ != 0) {
      data()[nwords_ - 1] &= (std::uint64_t{1} << rem) - 1;
    }
  }

  static inline std::atomic<std::uint32_t> sparse_threshold_words_{
      kDefaultSparseThresholdWords};

  std::size_t size_ = 0;      ///< universe size in bits
  std::uint32_t nwords_ = 0;  ///< active words = words_for(size_)
  std::uint32_t cap_ = kInlineWords;  ///< allocated words; 0 tags sparse form
  union Store {
    std::uint64_t words[kInlineWords];
    std::uint64_t* heap;
    std::vector<Chunk>* sparse;
  } store_{};
};

}  // namespace rc11::util
