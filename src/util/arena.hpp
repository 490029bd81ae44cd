// Bump-pointer arena and pooled, intrusively ref-counted nodes for the
// DPOR exploration tree.
//
// The tree-shaped explorer allocates one Node per executed transition and
// free it when the last queue item or child pointing at it dies. With
// std::shared_ptr that is one control-block allocation per transition plus
// atomic ref traffic scattered across the heap; with millions of
// transitions the allocator and the pointer-chasing dominate. The scheme
// here replaces that with:
//
//  - Arena: a bump-pointer allocator of geometrically growing blocks.
//    Objects are created once, never individually freed, and destroyed
//    (in reverse creation order) when the arena dies. Creation registers
//    a finalizer, so non-trivially-destructible nodes are safe.
//  - ArenaPool<T>: a free-list of recycled T* on top of an Arena. A
//    released node keeps the heap buffers of its members (vectors), so
//    re-acquiring one turns per-transition allocation into
//    capacity-reusing assignment once the pool is warm.
//  - PoolRef<T>: an intrusive shared handle. T provides `refs` (atomic
//    counter). When the count hits zero the holder calls the ADL hook
//    `pooled_dispose(T*)`, which scrubs the node and pushes it onto its
//    engine's free list.
//
// Lifetime rules (also summarised in src/mc/README.md): the Arena/
// ArenaPool must be declared before — and therefore destroyed after —
// every container that may still hold PoolRefs into it (work deques,
// roots); ~ArenaPool runs the registered finalizers on every node ever
// created, live or pooled, so nodes must be in a destructible state
// whenever the engine can unwind.
#pragma once

#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <utility>
#include <vector>

namespace rc11::util {

/// Bump-pointer allocator: objects live until the arena is destroyed.
class Arena {
 public:
  Arena() = default;
  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  ~Arena() {
    // Finalize in reverse creation order (children before the parents
    // they reference, in tree-exploration creation patterns).
    for (auto it = finalizers_.rbegin(); it != finalizers_.rend(); ++it) {
      it->destroy(it->object);
    }
  }

  /// Allocates and constructs a T; destroyed by ~Arena.
  template <typename T, typename... Args>
  T* create(Args&&... args) {
    void* mem = allocate(sizeof(T), alignof(T));
    T* obj = new (mem) T(std::forward<Args>(args)...);
    if constexpr (!std::is_trivially_destructible_v<T>) {
      finalizers_.push_back(
          {obj, [](void* p) { static_cast<T*>(p)->~T(); }});
    }
    return obj;
  }

  /// Bytes reserved across all blocks (capacity, not live objects).
  [[nodiscard]] std::size_t bytes() const {
    std::size_t n = 0;
    for (const Block& b : blocks_) n += b.size;
    return n;
  }

 private:
  struct Block {
    std::unique_ptr<std::byte[]> mem;
    std::size_t size = 0;
  };
  struct Finalizer {
    void* object;
    void (*destroy)(void*);
  };

  static constexpr std::size_t kFirstBlockBytes = 4096;

  void* allocate(std::size_t size, std::size_t align) {
    std::size_t offset = (used_ + align - 1) & ~(align - 1);
    if (blocks_.empty() || offset + size > blocks_.back().size) {
      const std::size_t want =
          std::max(size + align, blocks_.empty()
                                     ? kFirstBlockBytes
                                     : 2 * blocks_.back().size);
      blocks_.push_back({std::make_unique<std::byte[]>(want), want});
      used_ = 0;
      offset = 0;
      // A fresh new[] block is suitably aligned for any scalar type; the
      // nodes pooled here never require over-alignment.
      assert(reinterpret_cast<std::uintptr_t>(blocks_.back().mem.get()) %
                 align ==
             0);
    }
    used_ = offset + size;
    return blocks_.back().mem.get() + offset;
  }

  std::vector<Block> blocks_;
  std::size_t used_ = 0;
  std::vector<Finalizer> finalizers_;
};

/// Free-list of recycled arena nodes. Not thread-safe by itself: the
/// engines guard acquire/release with their pool mutex.
template <typename T>
class ArenaPool {
 public:
  /// Pops a recycled node, or arena-creates a fresh one.
  template <typename... Args>
  T* acquire(Args&&... args) {
    if (!free_.empty()) {
      T* p = free_.back();
      free_.pop_back();
      return p;
    }
    return arena_.create<T>(std::forward<Args>(args)...);
  }

  /// Returns a scrubbed node to the free list.
  void release(T* p) { free_.push_back(p); }

  [[nodiscard]] std::size_t bytes() const { return arena_.bytes(); }

 private:
  // free_ is declared first so it is destroyed *after* arena_: ~Arena
  // finalizes any still-live node, whose teardown may cascade releases
  // into the free list — which must therefore still exist.
  std::vector<T*> free_;
  Arena arena_;
};

/// Intrusive shared handle to a pooled node. T must expose
/// `std::atomic<std::uint32_t> refs` and define an ADL-visible
/// `pooled_dispose(T*)` that scrubs the node and returns it to its pool.
template <typename T>
class PoolRef {
 public:
  PoolRef() = default;

  /// Wraps a node whose refcount was pre-set to 1 by the allocator.
  static PoolRef adopt(T* p) {
    PoolRef r;
    r.p_ = p;
    return r;
  }

  PoolRef(const PoolRef& o) : p_(o.p_) {
    if (p_) p_->refs.fetch_add(1, std::memory_order_relaxed);
  }
  PoolRef(PoolRef&& o) noexcept : p_(o.p_) { o.p_ = nullptr; }

  PoolRef& operator=(const PoolRef& o) {
    if (this != &o) {
      T* old = p_;
      p_ = o.p_;
      if (p_) p_->refs.fetch_add(1, std::memory_order_relaxed);
      unref(old);
    }
    return *this;
  }
  PoolRef& operator=(PoolRef&& o) noexcept {
    if (this != &o) {
      T* old = p_;
      p_ = o.p_;
      o.p_ = nullptr;
      unref(old);
    }
    return *this;
  }

  ~PoolRef() { unref(p_); }

  void reset() {
    T* old = p_;
    p_ = nullptr;
    unref(old);
  }

  [[nodiscard]] T* get() const { return p_; }
  [[nodiscard]] T& operator*() const { return *p_; }
  [[nodiscard]] T* operator->() const { return p_; }
  explicit operator bool() const { return p_ != nullptr; }
  [[nodiscard]] bool operator==(const PoolRef& o) const { return p_ == o.p_; }

 private:
  static void unref(T* p) {
    // Release ordering publishes our writes to the node before another
    // thread recycles it; the disposer's acquire pairs with it.
    if (p && p->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      pooled_dispose(p);
    }
  }

  T* p_ = nullptr;
};

}  // namespace rc11::util
