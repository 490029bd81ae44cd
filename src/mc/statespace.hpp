// State-space bookkeeping: fingerprint deduplication, parent-pointer
// records, and statistics.
//
// Two interleavings of independent steps reach isomorphic configurations
// (Propositions 2.3 / 4.1); the 128-bit fingerprint of the canonical form
// (Config::fingerprint) identifies them, so the explorer visits each
// configuration once. Each visited state gets a compact StateId and a
// StateRecord carrying its fingerprint plus a parent pointer (predecessor
// StateId and the index of the successor step that produced it), from which
// both the sequential and the work-stealing parallel explorer reconstruct
// counterexample traces by deterministic replay (successors() enumerates
// steps in a fixed order).
//
// Records live in a *paged* store (a root array of blocks that double from
// 64 to 16 Ki records, then stay at 16 Ki), so (a) growth never copies
// existing records (no 2x realloc spike at the worst moment), (b) past the
// doubling pages the store overshoots its records by under one 512 KiB
// page, and (c) record addresses are stable, which the concurrent variant
// relies on for lock-copy reads while other threads append. The index
// slots hold 32-bit record indices, so one SeenSet holds at most
// 2^32 - 2 states; StateIds stay 64-bit, and the sharded variant's ids
// (local id and shard bits) stay below 2^36.
//
// SeenSet is a single-threaded open-addressing table; ConcurrentSeenSet
// shards the same layout 16 ways with per-shard locks for the parallel
// explorer. Cost is sizeof(StateRecord) = 32 bytes per state of records
// plus ~8 bytes per state of index slots at the 50% load cap (16 just
// after a doubling) — versus the hundreds of bytes per state of the
// std::string canonical keys they replaced (StringSeenSet, kept for the
// bench_mc_scaling footprint ablation).
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <utility>
#include <mutex>
#include <string>
#include <unordered_set>
#include <vector>

#include "util/fingerprint.hpp"

namespace rc11::mc {

struct ExploreStats {
  std::size_t states = 0;       ///< unique configurations visited
  std::size_t transitions = 0;  ///< transitions generated
  /// Successors deduplicated away. Under DPOR: arrivals at a
  /// configuration already visited, whether the revisit was pruned
  /// against its state's record or expanded again.
  std::size_t merged = 0;
  std::size_t finals = 0;       ///< terminated configurations
  std::size_t max_depth = 0;    ///< deepest DFS path
  /// Seen-set footprint at peak. Under DPOR it also counts the per-state
  /// records of the stateful search and the table of signatures they
  /// index.
  std::size_t peak_seen_bytes = 0;
  std::size_t por_pruned = 0;   ///< transitions pruned by the POR layer
  std::size_t backtracks = 0;   ///< DPOR backtrack points inserted
  /// Executions started and then killed by the sleep filter: tree nodes
  /// whose every enabled transition was asleep (the prefix explored to
  /// reach them was redundant). Nonzero only under the DPOR engine.
  std::size_t sleep_blocked = 0;
  /// Arrivals of the DPOR engine at a terminated configuration: the
  /// maximal traces it ran to their end (duplicate final *states*
  /// included — this counts explored interleavings, not unique outcomes
  /// like `finals`). A revisit pruned before termination counts none,
  /// although its executions go on in its state's first complete visit.
  /// Zero under the deduplicating graph explorers.
  std::size_t complete_traces = 0;
  /// Transitions executed from a configuration that — itself or via an
  /// ancestor on its spine — had already been visited when reached, and
  /// whose revisit the DPOR engine expanded instead of pruning (its
  /// state's record was not complete yet, or slept on more than the
  /// revisit): the shared suffixes it explored again. The deduplicating
  /// graph explorers merge duplicates instead of re-expanding them, so
  /// they always report zero here.
  std::size_t redundant_transitions = 0;
  bool truncated = false;       ///< hit max_states

  /// Merges another run's (or worker's) stats into this one: counters add,
  /// `max_depth` takes the max, `truncated` ORs. `peak_seen_bytes` adds —
  /// correct when the operands are disjoint runs or per-worker slabs whose
  /// shared-structure footprint is recorded on exactly one side; callers
  /// merging workers of one run set it once on the destination afterwards.
  ExploreStats& operator+=(const ExploreStats& o) {
    states += o.states;
    transitions += o.transitions;
    merged += o.merged;
    finals += o.finals;
    max_depth = max_depth > o.max_depth ? max_depth : o.max_depth;
    peak_seen_bytes += o.peak_seen_bytes;
    por_pruned += o.por_pruned;
    backtracks += o.backtracks;
    sleep_blocked += o.sleep_blocked;
    complete_traces += o.complete_traces;
    redundant_transitions += o.redundant_transitions;
    truncated = truncated || o.truncated;
    return *this;
  }

  [[nodiscard]] std::string to_string() const;
};

/// Per-worker counters of one parallel run (work-stealing explorers).
struct WorkerStats {
  std::size_t processed = 0;  ///< states expanded by this worker
  std::size_t enqueued = 0;   ///< fresh successors pushed to its own deque
  std::size_t steals = 0;     ///< items taken from another worker's deque
  std::size_t merged = 0;     ///< successors deduplicated away

  [[nodiscard]] std::string to_string() const;
};

/// Dense index of a visited state within a (Concurrent)SeenSet.
using StateId = std::uint64_t;
inline constexpr StateId kNoState = ~StateId{0};

/// Per-state record: identity plus the incoming edge used for trace
/// reconstruction (`step` indexes into successors(parent)).
struct StateRecord {
  util::Fingerprint fp;
  StateId parent = kNoState;
  std::uint32_t step = 0;
};

struct InsertResult {
  StateId id = kNoState;
  bool inserted = false;  ///< true iff the fingerprint was new
};

/// Append-only paged array of StateRecords: a root array of blocks. Page p
/// holds 64 << p records up to 16 Ki records (512 KiB) at page 8, and every
/// later page holds 16 Ki. A litmus-scale run costs one 2 KiB page; the
/// overshoot stays below 2x over the first 32,704 records and below one
/// page past them. Unlike a std::vector, growth never copies existing
/// records (no 2x realloc spike at the worst moment; addresses are stable,
/// which the concurrent seen set's lock-copy reads rely on). Indexing is
/// O(1): bit_width over the doubling pages, a shift past them.
class PagedRecordStore {
 public:
  static constexpr std::size_t kFirstPageBits = 6;  // 64 records
  static constexpr std::size_t kLastPageBits = 14;  // 16 Ki records

  /// Appends and returns the new record's dense id.
  StateId push(const StateRecord& rec) {
    if (size_ == capacity_) {
      const std::size_t page_size =
          std::size_t{1} << std::min(kFirstPageBits + pages_.size(),
                                     kLastPageBits);
      pages_.push_back(std::make_unique<StateRecord[]>(page_size));
      capacity_ += page_size;
    }
    const auto [page, offset] = locate(size_);
    pages_[page][offset] = rec;
    return size_++;
  }

  [[nodiscard]] const StateRecord& operator[](StateId id) const {
    const auto [page, offset] = locate(id);
    return pages_[page][offset];
  }

  [[nodiscard]] std::size_t size() const { return size_; }

  [[nodiscard]] std::size_t bytes() const {
    return capacity_ * sizeof(StateRecord) +
           pages_.capacity() * sizeof(pages_[0]);
  }

 private:
  /// Pages 0 .. kLastPageBits - kFirstPageBits double; together they hold
  /// the first kDoublingRecords (32,704) records.
  static constexpr std::size_t kDoublingPages =
      kLastPageBits - kFirstPageBits + 1;
  static constexpr StateId kDoublingRecords =
      (StateId{1} << (kLastPageBits + 1)) - (StateId{1} << kFirstPageBits);

  /// id 0 lives at page 0 offset 0; biasing by the first page size makes
  /// the page index of a doubling page the position of the id's highest
  /// bit. Past them, every page holds 1 << kLastPageBits records.
  static std::pair<std::size_t, std::size_t> locate(StateId id) {
    if (id >= kDoublingRecords) {
      const StateId past = id - kDoublingRecords;
      return {kDoublingPages + static_cast<std::size_t>(past >> kLastPageBits),
              static_cast<std::size_t>(
                  past & ((StateId{1} << kLastPageBits) - 1))};
    }
    const StateId biased = id + (StateId{1} << kFirstPageBits);
    const int width = std::bit_width(biased);
    const std::size_t page =
        static_cast<std::size_t>(width) - (kFirstPageBits + 1);
    const std::size_t offset =
        static_cast<std::size_t>(biased - (StateId{1} << (width - 1)));
    return {page, offset};
  }

  std::vector<std::unique_ptr<StateRecord[]>> pages_;
  std::size_t size_ = 0;
  std::size_t capacity_ = 0;
};

/// Insert-only open-addressing table over fingerprints (single-threaded).
class SeenSet {
 public:
  SeenSet() { rehash(kInitialSlots); }

  /// Inserts fp with its incoming edge; on a duplicate returns the existing
  /// state's id (the first-discovered parent wins, keeping traces acyclic).
  InsertResult insert(const util::Fingerprint& fp, StateId parent = kNoState,
                      std::uint32_t step = 0);

  [[nodiscard]] const StateRecord& record(StateId id) const {
    return records_[id];
  }

  [[nodiscard]] std::size_t size() const { return records_.size(); }

  /// Current footprint: record pages plus index slots.
  [[nodiscard]] std::size_t bytes() const {
    return records_.bytes() + slots_.capacity() * sizeof(slots_[0]);
  }

  /// Most records one SeenSet holds: a slot stores id + 1 in 32 bits, and
  /// 0 marks it empty. insert() throws std::length_error past the cap.
  static constexpr StateId kMaxRecords = (StateId{1} << 32) - 2;

 private:
  // Power of two. Kept small: every per-program explorer run constructs a
  // seen set (16 of them when sharded), so the empty-table footprint is
  // part of peak_seen_bytes on litmus-scale workloads; the 50% load cap
  // doubles it within a handful of inserts anyway.
  static constexpr std::size_t kInitialSlots = 64;

  void rehash(std::size_t new_slot_count);

  PagedRecordStore records_;
  std::vector<std::uint32_t> slots_;  ///< record id + 1; 0 = empty
  std::size_t mask_ = 0;
};

/// Sharded, mutex-guarded variant for the work-stealing parallel explorer.
/// StateIds encode the shard in the low bits, so records can be resolved
/// without a global lock; with SeenSet::kMaxRecords per shard they stay
/// below 2^36. Insertion contention is one short critical section on 1 of
/// 16 shards.
class ConcurrentSeenSet {
 public:
  InsertResult insert(const util::Fingerprint& fp, StateId parent = kNoState,
                      std::uint32_t step = 0) {
    const std::size_t shard = fp.shard_bits() & (kShards - 1);
    std::lock_guard lock(mutexes_[shard]);
    InsertResult r = shards_[shard].insert(fp, parent, step);
    r.id = encode(r.id, shard);
    return r;
  }

  /// Copy of the record for `id` (copied because other threads may append
  /// to the shard's page table concurrently).
  [[nodiscard]] StateRecord record(StateId id) const {
    const std::size_t shard = id & (kShards - 1);
    std::lock_guard lock(mutexes_[shard]);
    return shards_[shard].record(id >> kShardBits);
  }

  [[nodiscard]] std::size_t size() const {
    std::size_t n = 0;
    for (std::size_t i = 0; i < kShards; ++i) {
      std::lock_guard lock(mutexes_[i]);
      n += shards_[i].size();
    }
    return n;
  }

  [[nodiscard]] std::size_t bytes() const {
    std::size_t n = 0;
    for (std::size_t i = 0; i < kShards; ++i) {
      std::lock_guard lock(mutexes_[i]);
      n += shards_[i].bytes();
    }
    return n;
  }

 private:
  static constexpr std::size_t kShardBits = 4;
  static constexpr std::size_t kShards = 1 << kShardBits;

  static StateId encode(StateId local, std::size_t shard) {
    return (local << kShardBits) | static_cast<StateId>(shard);
  }

  mutable std::array<std::mutex, kShards> mutexes_;
  std::array<SeenSet, kShards> shards_;
};

/// Dispatches between SeenSet and ConcurrentSeenSet by worker count, so
/// single-worker runs of the DPOR and parallel engines do not pay the
/// 16-shard fixed footprint (16 empty tables + 16 first pages ≈ 36 KiB
/// per explored program) or the per-insert lock. The parallel
/// explorers construct one per run; the StateId encoding follows the
/// backing store (shard bits only in sharded mode).
class AdaptiveSeenSet {
 public:
  explicit AdaptiveSeenSet(std::size_t workers) : sharded_(workers > 1) {
    if (sharded_) concurrent_.emplace();
  }

  InsertResult insert(const util::Fingerprint& fp, StateId parent = kNoState,
                      std::uint32_t step = 0) {
    if (sharded_) return concurrent_->insert(fp, parent, step);
    return flat_.insert(fp, parent, step);
  }

  /// Copy of the record for `id` (by value: in sharded mode other threads
  /// may append to the page table concurrently).
  [[nodiscard]] StateRecord record(StateId id) const {
    if (sharded_) return concurrent_->record(id);
    return flat_.record(id);
  }

  [[nodiscard]] std::size_t size() const {
    return sharded_ ? concurrent_->size() : flat_.size();
  }

  [[nodiscard]] std::size_t bytes() const {
    return sharded_ ? concurrent_->bytes() : flat_.bytes();
  }

 private:
  bool sharded_;
  SeenSet flat_;  ///< used when single-threaded (empty otherwise: 256 B)
  std::optional<ConcurrentSeenSet> concurrent_;
};

/// The pre-fingerprint design: canonical keys as std::strings in a node-based
/// hash set. Kept only so bench_mc_scaling can measure the bytes-per-state
/// reduction of the fingerprint tables against it.
class StringSeenSet {
 public:
  bool insert(const std::string& key) {
    const bool added = set_.insert(key).second;
    if (added) key_bytes_ += key.capacity() + kNodeOverhead;
    return added;
  }

  [[nodiscard]] std::size_t size() const { return set_.size(); }

  /// Footprint estimate: key payloads + per-node allocation overhead +
  /// bucket array.
  [[nodiscard]] std::size_t bytes() const {
    return key_bytes_ + set_.bucket_count() * sizeof(void*);
  }

 private:
  // std::string header + hash-node header (next pointer, cached hash);
  // a conservative estimate of libstdc++'s per-element cost.
  static constexpr std::size_t kNodeOverhead =
      sizeof(std::string) + 2 * sizeof(void*);

  std::unordered_set<std::string> set_;
  std::size_t key_bytes_ = 0;
};

}  // namespace rc11::mc
