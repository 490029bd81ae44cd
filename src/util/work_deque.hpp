// Per-worker work deques for the work-stealing explorers (mc/parallel.cpp
// and mc/dpor.cpp share this container; each keeps its own termination
// bookkeeping and idle loop).
//
// Owners push to and pop from the back of their own deque (depth-first,
// cache-friendly); thieves take from other workers' fronts (breadth-ish,
// good load spread). A plain mutex per deque is enough — the critical
// sections are a couple of pointer moves, and contention concentrates on
// distinct deques. A deque is a vector with a moving front, so an empty
// one holds no heap storage and a refilled one reuses its buffer.
#pragma once

#include <cstddef>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

namespace rc11::util {

template <class T>
class WorkDeques {
 public:
  explicit WorkDeques(std::size_t workers) : deques_(workers) {}

  [[nodiscard]] std::size_t worker_count() const { return deques_.size(); }

  /// Owner push to the back of `me`'s deque.
  void push_local(std::size_t me, T item) {
    Deque& q = deques_[me];
    std::lock_guard lock(q.mutex);
    if (q.head > 0 && q.items.size() == q.items.capacity()) {
      // Reclaim the stolen prefix rather than grow past it.
      q.items.erase(q.items.begin(),
                    q.items.begin() + static_cast<std::ptrdiff_t>(q.head));
      q.head = 0;
    }
    q.items.push_back(std::move(item));
  }

  /// Owner pop from the back of `me`'s deque.
  [[nodiscard]] std::optional<T> pop_local(std::size_t me) {
    Deque& q = deques_[me];
    std::lock_guard lock(q.mutex);
    if (q.items.size() == q.head) return std::nullopt;
    T item = std::move(q.items.back());
    q.items.pop_back();
    q.drop_if_empty();
    return item;
  }

  /// Steal from the front of another worker's deque, scanning round-robin
  /// from `me + 1`.
  [[nodiscard]] std::optional<T> steal(std::size_t me) {
    const std::size_t n = deques_.size();
    for (std::size_t d = 1; d < n; ++d) {
      Deque& q = deques_[(me + d) % n];
      std::lock_guard lock(q.mutex);
      if (q.items.size() == q.head) continue;
      T item = std::move(q.items[q.head++]);
      q.drop_if_empty();
      return item;
    }
    return std::nullopt;
  }

 private:
  struct Deque {
    std::mutex mutex;
    /// items[head..] are queued, oldest first; items[..head) were stolen.
    std::vector<T> items;
    std::size_t head = 0;

    void drop_if_empty() {
      if (items.size() != head) return;
      items.clear();
      head = 0;
    }
  };

  std::vector<Deque> deques_;
};

}  // namespace rc11::util
