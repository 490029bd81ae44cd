#include "mc/dpor.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cassert>
#include <chrono>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <thread>
#include <utility>

#include "mc/cursor.hpp"
#include "mc/independence.hpp"
#include "util/arena.hpp"
#include "util/hash.hpp"
#include "util/thread_pool.hpp"
#include "util/work_deque.hpp"

namespace rc11::mc {

namespace {

struct Engine;

// --- Signature bitsets -----------------------------------------------------
//
// Sleep sets, enabled sets and summaries are sets of SigTable ids, stored as
// words of bits. A set is only as long as its highest id needs; absent
// words are zero.

/// A set of SigTable ids. Its first word lives inline, so a set of ids
/// below 64 (every set of a search that meets at most 64 signatures) stays
/// off the heap; past that, every word lives in `spill_`, whose storage a
/// cleared set keeps for reuse.
class Bits {
 public:
  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] const std::uint64_t* data() const {
    return size_ > 1 ? spill_.data() : &first_;
  }
  [[nodiscard]] std::uint64_t* data() {
    return size_ > 1 ? spill_.data() : &first_;
  }
  [[nodiscard]] std::uint64_t operator[](std::size_t w) const {
    return data()[w];
  }
  std::uint64_t& operator[](std::size_t w) { return data()[w]; }

  /// Words of storage held (the spilled vector's capacity once spilled),
  /// for footprint reports.
  [[nodiscard]] std::size_t capacity() const {
    return size_ > 1 ? spill_.capacity() : size_;
  }

  /// Lengthens the set to `n` words, the new ones zero.
  void grow(std::size_t n) {
    if (n <= size_) return;
    if (n > 1) {
      if (size_ > 1) {
        spill_.resize(n, 0);
      } else {
        spill_.assign(n, 0);
        spill_[0] = first_;
        first_ = 0;
      }
    }
    size_ = n;
  }

  /// Makes the set a copy of the `n` words at `w`.
  void assign(const std::uint64_t* w, std::size_t n) {
    clear();
    grow(n);
    std::copy_n(w, n, data());
  }

  void clear() {
    size_ = 0;
    first_ = 0;
    spill_.clear();
  }

 private:
  std::size_t size_ = 0;
  std::uint64_t first_ = 0;  ///< the only word while size_ <= 1, else 0
  std::vector<std::uint64_t> spill_;  ///< every word while size_ > 1
};

void bits_set(Bits& b, std::uint32_t id) {
  const std::size_t w = id / 64;
  b.grow(w + 1);
  b[w] |= std::uint64_t{1} << (id % 64);
}

[[nodiscard]] bool bits_test(const Bits& b, std::uint32_t id) {
  const std::size_t w = id / 64;
  return w < b.size() && ((b[w] >> (id % 64)) & 1) != 0;
}

void bits_or(Bits& dst, const Bits& src) {
  dst.grow(src.size());
  for (std::size_t w = 0; w < src.size(); ++w) dst[w] |= src[w];
}

/// a ⊆ b, over `na` and `nb` words.
[[nodiscard]] bool bits_subset(const std::uint64_t* a, std::size_t na,
                               const std::uint64_t* b, std::size_t nb) {
  for (std::size_t w = 0; w < na; ++w) {
    if ((a[w] & ~(w < nb ? b[w] : 0)) != 0) return false;
  }
  return true;
}

/// Calls fn(id) for every id in the set, ascending.
template <typename Fn>
void bits_for_each(const std::uint64_t* b, std::size_t n, Fn&& fn) {
  for (std::size_t w = 0; w < n; ++w) {
    for (std::uint64_t word = b[w]; word != 0; word &= word - 1) {
      fn(static_cast<std::uint32_t>(w * 64 + std::countr_zero(word)));
    }
  }
}

/// Dense ids for the step signatures one run meets, so that every set of
/// signatures is a bitset. Ids are handed out in first-met order. A
/// signature's slot never moves (pages of doubling size), so a worker reads
/// sig(id) for any id it was handed without the lock; interning takes the
/// lock when the run has more than one worker. The first page and the
/// first index live inline: a run that meets at most kFirstPage signatures
/// allocates nothing here.
class SigTable {
 public:
  explicit SigTable(bool shared) : shared_(shared) {}
  SigTable(const SigTable&) = delete;
  SigTable& operator=(const SigTable&) = delete;

  /// The ids of `sigs`, in order.
  void intern(const std::vector<StepSig>& sigs,
              std::vector<std::uint32_t>& ids) {
    ids.clear();
    std::unique_lock lock(mu_, std::defer_lock);
    if (shared_) lock.lock();
    for (const StepSig& s : sigs) ids.push_back(intern_locked(s));
  }

  [[nodiscard]] const StepSig& sig(std::uint32_t id) const {
    const auto [page, offset] = locate(id);
    return page == 0 ? first_page_[offset] : pages_[page][offset];
  }

  [[nodiscard]] std::size_t bytes() const {
    std::unique_lock lock(mu_, std::defer_lock);
    if (shared_) lock.lock();
    return page_bytes_ + slot_count_ * sizeof(std::uint32_t);
  }

 private:
  static constexpr std::size_t kFirstPage = 32;

  /// Page p holds kFirstPage << p signatures; see PagedRecordStore.
  static std::pair<std::size_t, std::size_t> locate(std::uint32_t id) {
    const std::size_t biased = id + kFirstPage;
    const int width = std::bit_width(biased);
    return {static_cast<std::size_t>(width - std::bit_width(kFirstPage)),
            biased - (std::size_t{1} << (width - 1))};
  }

  static std::size_t hash(const StepSig& s) {
    std::size_t h = s.thread;
    util::hash_combine(h, (std::size_t{s.silent} << 9) |
                              (std::size_t{s.sc_coupled} << 8) |
                              static_cast<std::size_t>(s.kind));
    util::hash_combine(h, s.var);
    util::hash_combine(h, static_cast<std::size_t>(s.rval));
    util::hash_combine(h, static_cast<std::size_t>(s.wval));
    util::hash_combine(h, (std::size_t{s.observed.thread} << 32) |
                              s.observed.index);
    return h;
  }

  std::uint32_t intern_locked(const StepSig& s) {
    const std::size_t mask = slot_count_ - 1;
    std::size_t slot = hash(s) & mask;
    for (; slots_[slot] != 0; slot = (slot + 1) & mask) {
      if (sig(slots_[slot] - 1) == s) return slots_[slot] - 1;
    }
    const std::uint32_t id = size_++;
    const auto [page, offset] = locate(id);
    if (offset == 0) page_bytes_ += (kFirstPage << page) * sizeof(StepSig);
    if (page == 0) {
      first_page_[offset] = s;
    } else {
      if (!pages_[page]) {
        pages_[page] = std::make_unique<StepSig[]>(kFirstPage << page);
      }
      pages_[page][offset] = s;
    }
    slots_[slot] = id + 1;
    if (2 * std::size_t{size_} > slot_count_) {
      std::vector<std::uint32_t> grown(slot_count_ * 2, 0);
      const std::size_t m = grown.size() - 1;
      for (std::size_t k = 0; k < slot_count_; ++k) {
        const std::uint32_t e = slots_[k];
        if (e == 0) continue;
        std::size_t to = hash(sig(e - 1)) & m;
        while (grown[to] != 0) to = (to + 1) & m;
        grown[to] = e;
      }
      index_ = std::move(grown);
      slots_ = index_.data();
      slot_count_ = index_.size();
    }
    return id;
  }

  bool shared_;
  mutable std::mutex mu_;
  std::array<StepSig, kFirstPage> first_page_;
  /// Pages 1 and up, allocated as the ids reach them (pages_[0] unused).
  std::array<std::unique_ptr<StepSig[]>, 27> pages_;
  /// The open-addressing index (id + 1; 0 = empty): first_index_ until the
  /// first rehash, then index_.
  std::array<std::uint32_t, 2 * kFirstPage> first_index_{};
  std::vector<std::uint32_t> index_;
  std::uint32_t* slots_ = first_index_.data();
  std::size_t slot_count_ = first_index_.size();
  std::uint32_t size_ = 0;
  std::size_t page_bytes_ = 0;
};

/// The records of the stateful search, keyed by the StateId the seen set
/// hands out: for each state with a complete visit, the visit's arrival
/// sleep set, the signatures enabled at the state and the summary of every
/// signature executed below it, as bitsets over SigTable ids. A shard is
/// one flat array of fixed-stride records (three sets of `width` words)
/// plus one bit per record that says it is complete; the array is laid out
/// afresh at a doubled width when a set outgrows it. A sharded seen set
/// puts its shard in a StateId's low four bits, so a multi-worker run keeps
/// one record shard, behind one lock, per seen-set shard; a single-worker
/// run has one unlocked shard.
class RecordStore {
 public:
  explicit RecordStore(bool sharded)
      : sharded_(sharded),
        shards_(sharded ? std::make_unique<Shard[]>(kShards) : nullptr) {}

  /// Publishes a complete visit of state `id`. The first complete visit
  /// fills the record. A later one whose sleep set is a subset of the
  /// record's replaces that sleep set and adds its summary, since its
  /// exploration asked for at least as much. Any other is dropped.
  void offer(StateId id, const Bits& sleep, const Bits& enabled,
             const Bits& summary) {
    Shard& sh = shard_of(id);
    std::unique_lock lock(sh.mu, std::defer_lock);
    if (sharded_) lock.lock();
    const std::size_t local = local_of(id);
    sh.fit(local, std::max({sleep.size(), enabled.size(), summary.size()}));
    std::uint64_t* rec = sh.record(local);
    const std::size_t w = sh.width;
    if (!bits_test(sh.done, static_cast<std::uint32_t>(local))) {
      bits_set(sh.done, static_cast<std::uint32_t>(local));
      std::copy_n(sleep.data(), sleep.size(), rec);
      std::copy_n(enabled.data(), enabled.size(), rec + w);
      std::copy_n(summary.data(), summary.size(), rec + 2 * w);
    } else if (bits_subset(sleep.data(), sleep.size(), rec, w)) {
      std::fill(rec, rec + w, 0);
      std::copy_n(sleep.data(), sleep.size(), rec);
      for (std::size_t k = 0; k < summary.size(); ++k) {
        rec[2 * w + k] |= summary[k];
      }
    }
  }

  /// True iff state `id` has a record whose sleep set is a subset of
  /// `sleep`: a revisit arriving with `sleep` may then stop there. Fills
  /// `summary` and `enabled` from the record when it does.
  [[nodiscard]] bool covers(StateId id, const Bits& sleep, Bits& summary,
                            Bits& enabled) {
    Shard& sh = shard_of(id);
    std::unique_lock lock(sh.mu, std::defer_lock);
    if (sharded_) lock.lock();
    const std::size_t local = local_of(id);
    if (!bits_test(sh.done, static_cast<std::uint32_t>(local))) return false;
    const std::uint64_t* rec = sh.record(local);
    const std::size_t w = sh.width;
    if (!bits_subset(rec, w, sleep.data(), sleep.size())) return false;
    enabled.assign(rec + w, w);
    summary.assign(rec + 2 * w, w);
    return true;
  }

  [[nodiscard]] std::size_t bytes() const {
    std::size_t n = 0;
    for (std::size_t k = 0; k < (sharded_ ? kShards : 1); ++k) {
      const Shard& sh = sharded_ ? shards_[k] : single_;
      std::unique_lock lock(sh.mu, std::defer_lock);
      if (sharded_) lock.lock();
      n += (sh.words.capacity() + sh.done.capacity()) * sizeof(std::uint64_t);
    }
    return n;
  }

 private:
  static constexpr std::size_t kShardBits = 4;  // ConcurrentSeenSet's
  static constexpr std::size_t kShards = std::size_t{1} << kShardBits;

  struct Shard {
    mutable std::mutex mu;
    std::vector<std::uint64_t> words;
    Bits done;              ///< local ids whose record is complete
    std::size_t width = 1;  ///< words per set
    std::size_t count = 0;  ///< records laid out

    std::uint64_t* record(std::size_t local) {
      return words.data() + local * 3 * width;
    }

    /// Makes room for record `local` with sets of `need` words.
    void fit(std::size_t local, std::size_t need) {
      if (need > width) {
        const std::size_t old = width;
        width = std::bit_ceil(need);
        std::vector<std::uint64_t> grown(count * 3 * width, 0);
        for (std::size_t r = 0; r < count; ++r) {
          for (std::size_t set = 0; set < 3; ++set) {
            const std::uint64_t* from = words.data() + (3 * r + set) * old;
            std::copy(from, from + old, grown.data() + (3 * r + set) * width);
          }
        }
        words = std::move(grown);
      }
      if (local >= count) {
        count = local + 1;
        words.resize(count * 3 * width, 0);
      }
    }
  };

  Shard& shard_of(StateId id) {
    return sharded_ ? shards_[id & (kShards - 1)] : single_;
  }
  [[nodiscard]] std::size_t local_of(StateId id) const {
    return static_cast<std::size_t>(sharded_ ? id >> kShardBits : id);
  }

  bool sharded_;
  Shard single_;  ///< the one shard of a single-worker run
  std::unique_ptr<Shard[]> shards_;  ///< kShards shards, when sharded
};

/// One node of the exploration tree: a step path, never a configuration.
/// The spine (parent chain) is the trace E the node was reached by, and
/// its configuration is whatever replaying the spine's incoming steps from
/// the start configuration reaches — a worker's cursor does that when the
/// node arrives (arrive()). Scheduling state is guarded by `mu` because
/// race reversals discovered in stolen subtrees insert backtrack points
/// into ancestors owned by other workers. Nodes stay alive exactly while
/// some queued item, descendant or cursor spine holds a PoolRef to them —
/// an insertion into a node whose owner finished its queued items simply
/// enqueues a fresh work item for it. Nodes are arena-allocated and
/// recycled through the engine pool (util/arena.hpp): the intrusive
/// refcount replaces one shared_ptr control-block allocation per
/// transition.
struct Node {
  std::atomic<std::uint32_t> refs{0};  ///< intrusive PoolRef count
  Engine* eng = nullptr;               ///< owning pool, for dispose
  util::PoolRef<Node> parent;
  std::uint32_t depth = 0;
  StepSig in_sig{};  ///< signature of the incoming step (depth > 0)
  std::uint32_t in_id = 0;  ///< its SigTable id
  /// Incoming step (depth > 0), as enumerated at the parent. Every
  /// configuration reached by the same step path is identical, tags
  /// included, so any cursor standing on the parent replays it as is.
  interp::Step in_step{};

  // Set by the expansion that creates the node, before its arrival is
  // queued; immutable afterwards.

  /// hb_row[i] = 1 iff spine event e_i happens-before this node's incoming
  /// event e_depth (a chain of pairwise-dependent trace steps leads from i
  /// to depth). Computed once when the parent expands the incoming step
  /// (mc/independence.hpp build_hb_row), so race detection only builds the
  /// one new row per transition instead of the whole closure.
  std::vector<char> hb_row;
  /// Transition signatures asleep on arrival: their executions from here
  /// are covered by an earlier sibling subtree.
  Bits sleep;

  // Set when the node arrives (its configuration is visited), before its
  // first expansion is queued; immutable afterwards. A pruned revisit
  // enumerates nothing.

  /// All transitions, by thread ascending (children copy their in_step).
  std::vector<interp::Step> steps;
  std::vector<StepSig> sigs;        ///< sig per step
  std::vector<std::uint32_t> ids;   ///< SigTable id per step
  StateId state = kNoState;         ///< the seen set's id of the state
  /// A revisit that stopped at its state's complete record: a leaf whose
  /// races were replayed from the record.
  bool pruned = false;
  /// The spine passed through a revisit that expanded: transitions from
  /// here re-explore a shared suffix (stats.redundant_transitions).
  bool redundant = false;

  /// Queued items of this node plus its children that have not completed.
  /// The node is complete when the count drops to zero: nothing more runs
  /// in its subtree, and `summary` is final.
  std::atomic<std::uint32_t> open{0};

  std::mutex mu;  ///< guards `scheduled`, `executed` and `summary`
  /// Threads scheduled at this node, in insertion order.
  std::vector<c11::ThreadId> scheduled;
  /// Signatures of the steps already executed from this node. A step's
  /// child may sleep on the siblings executed before it: a later-executed
  /// step's subtree may put an earlier-executed sibling transition to
  /// sleep, never the reverse.
  Bits executed;
  /// Signatures executed below this node: every complete child's incoming
  /// signature and summary. A pruned revisit's is its record's summary.
  Bits summary;
};

using NodePtr = util::PoolRef<Node>;

/// PoolRef release hook (found by ADL from util::PoolRef<Node>).
void pooled_dispose(Node* p);

/// `thread` of an item that visits its node rather than expanding it.
constexpr c11::ThreadId kArrive = 0;

/// A queued unit of work: the arrival of a freshly created node
/// (thread == kArrive), or the expansion of one scheduled thread at a node
/// that has arrived. Thread ids start at 1 (0 is the initialising thread).
struct Item {
  NodePtr node;
  c11::ThreadId thread = kArrive;
};

bool contains(const std::vector<c11::ThreadId>& v, c11::ThreadId t) {
  return std::find(v.begin(), v.end(), t) != v.end();
}

/// A worker's cursor (mc/cursor.hpp) with the tree nodes it stands on:
/// spine[k] is the node at depth k, spine[0] the root. Holding PoolRefs
/// keeps those nodes from being recycled, so pointer identity is a sound
/// test for the prefix the cursor shares with another node. Padded so
/// neighbouring workers' cursors don't false-share.
struct alignas(64) NodeCursor {
  explicit NodeCursor(interp::Config&& start) : at(std::move(start)) {}

  Cursor at;
  std::vector<NodePtr> spine;
};

/// Per-worker reporting counters, merged into the result with
/// ExploreStats::operator+= when the run finishes. Owner-written without
/// synchronization (heartbeats may sample them; monitoring only), padded so
/// neighbouring workers don't false-share.
struct alignas(64) WorkerTotals {
  ExploreStats stats;
};

struct Engine {
  Engine(interp::Config&& start, const ExploreOptions& opts,
         const Visitor& vis, std::size_t workers)
      : options(opts),
        visitor(vis),
        deques(workers),
        worker_stats(workers),
        totals(workers),
        seen(workers),
        sig_table(workers > 1),
        records(workers > 1) {
    cursors.reserve(workers);
    cursors.emplace_back(std::move(start));
    for (std::size_t k = 1; k < workers; ++k) {
      cursors.emplace_back(interp::Config(cursors[0].at.config()));
    }
  }

  /// Arena-backed node pool. A released node keeps the heap buffers of its
  /// step / signature / bitset vectors, so reusing one is near
  /// allocation-free once the pool is warm; the arena itself packs nodes
  /// contiguously and frees them wholesale. Declared first so it outlives
  /// the deques and cursors: items still queued at early-stop, and cursor
  /// spines, release their nodes into the pool during ~Engine.
  std::mutex pool_mu;
  util::ArenaPool<Node> pool;

  ExploreOptions options;
  const Visitor& visitor;
  util::WorkDeques<Item> deques;
  std::vector<WorkerStats> worker_stats;
  /// Pure-reporting counters live here, one slab per worker, written by the
  /// owner only — no hot-path atomics. `states`, `transitions` and
  /// `truncated` stay atomic: max_states control flow and heartbeat rates
  /// need coherent cross-worker reads.
  std::vector<WorkerTotals> totals;
  /// One cursor per worker, each owned by its worker (cursors[0] also
  /// serves the root's visit, before the workers start).
  std::vector<NodeCursor> cursors;

  AdaptiveSeenSet seen;  ///< state ids, which key the records
  SigTable sig_table;
  RecordStore records;

  std::atomic<std::size_t> pending{0};
  std::atomic<bool> stop{false};
  std::atomic<std::size_t> states{0};
  std::atomic<std::size_t> transitions{0};
  std::atomic<bool> truncated{false};
  std::atomic<bool> root_complete{false};

  std::mutex abort_mutex;
  bool aborted = false;
  Trace abort_trace;

  void record_abort(Trace trace) {
    {
      std::lock_guard lock(abort_mutex);
      if (!aborted) {
        aborted = true;
        abort_trace = std::move(trace);
      }
    }
    stop.store(true, std::memory_order_release);
  }

  /// Seen-set, record and signature-table bytes.
  [[nodiscard]] std::size_t seen_bytes() const {
    return seen.bytes() + records.bytes() + sig_table.bytes();
  }
};

/// Takes a node from the pool (or arena-creates one) with an initial
/// reference; the last PoolRef to die routes it through pooled_dispose.
NodePtr acquire_node(Engine& eng) {
  Node* p;
  {
    std::lock_guard lock(eng.pool_mu);
    p = eng.pool.acquire();
  }
  p->eng = &eng;
  p->refs.store(1, std::memory_order_relaxed);
  return NodePtr::adopt(p);
}

/// Scrubs the scheduling state of a node whose last reference died and
/// returns it to its engine's pool, buffers intact. The spine release runs
/// *before* taking the pool lock: resetting `parent` may cascade disposal
/// up the spine (bounded by depth), and each ancestor takes the lock for
/// its own push.
void pooled_dispose(Node* p) {
  Engine& eng = *p->eng;
  p->parent.reset();
  p->depth = 0;
  p->in_sig = {};
  p->in_id = 0;
  p->in_step = {};
  p->hb_row.clear();
  p->sleep.clear();
  p->steps.clear();
  p->sigs.clear();
  p->ids.clear();
  p->state = kNoState;
  p->pruned = false;
  p->redundant = false;
  p->open.store(0, std::memory_order_relaxed);
  p->scheduled.clear();
  p->executed.clear();
  p->summary.clear();
  std::lock_guard lock(eng.pool_mu);
  eng.pool.release(p);
}

/// Moves worker `me`'s cursor onto `target`: up to the deepest node of
/// target's spine the cursor stands on (undo), then down target's spine
/// replaying each node's in_step. The root is on every spine, so the walk
/// stops. A node popped right after its parent's expansion is one apply.
void move_to(Engine& eng, NodeCursor& nc, const NodePtr& target) {
  // The spine suffix the cursor lacks, deepest first. The PoolRefs live in
  // the item and in the nodes' parent fields, both immutable and alive
  // while `target` is.
  thread_local std::vector<const NodePtr*> suffix;
  suffix.clear();
  const NodePtr* p = &target;
  while ((*p)->depth >= nc.spine.size() || nc.spine[(*p)->depth] != *p) {
    suffix.push_back(p);
    p = &(*p)->parent;
  }
  const std::size_t shared = (*p)->depth + 1;
  nc.at.undo_to(shared - 1);
  nc.spine.resize(shared);
  for (auto it = suffix.rbegin(); it != suffix.rend(); ++it) {
    nc.at.apply((**it)->in_step, eng.options.step);
    nc.spine.push_back(**it);
  }
}

/// Fills steps/sigs/ids of a node from the configuration it stands for.
void prepare_node(Engine& eng, Node& n, interp::Config& config) {
  obs::ScopedPhase enum_phase(obs::Phase::kEnumerate);
  interp::enumerate_steps(config, eng.options.step, n.steps);
  sigs_of(n.steps, config.exec, n.sigs, config.has_sc_fence);
  eng.sig_table.intern(n.sigs, n.ids);
}

/// The trace from the root to `n` (the path the spine encodes). Entries
/// are rendered here, on the cold path — the hot path only records steps.
Trace spine_trace(const Engine& eng, const Node* n) {
  Trace t;
  // The engine's step options: fused, under the caller's loop bound
  // (explore_dpor).
  t.step = eng.options.step;
  for (const Node* p = n; p->depth > 0; p = p->parent.get()) {
    t.entries.push_back(make_entry(p->in_step));
  }
  std::reverse(t.entries.begin(), t.entries.end());
  return t;
}

/// nodes[k] = the node at depth k of n's spine; its in_sig is trace event
/// e_k and its hb_row[i] says whether e_i happens-before e_k.
void spine_nodes(Node& n, std::vector<Node*>& nodes) {
  nodes.resize(n.depth + 1);
  Node* p = &n;
  for (std::size_t k = n.depth;; --k) {
    nodes[k] = p;
    if (k == 0) break;
    p = p->parent.get();
  }
}

/// True iff thread q has at least one transition at n not slept on.
bool has_awake_step(const Node& n, c11::ThreadId q) {
  for (std::size_t j = 0; j < n.sigs.size(); ++j) {
    if (n.sigs[j].thread == q && !bits_test(n.sleep, n.ids[j])) return true;
  }
  return false;
}

/// First thread to schedule at a node: a thread whose every step is silent
/// if one exists (silent steps are independent with everything, so the
/// node will never receive a backtrack point — the branch-deferring
/// "invisible transition first" heuristic; with tau compression these are
/// only the root's, before its first drain, and the unfoldings of an
/// unbounded search: a bounded one fuses every unfolding its bound
/// allows), else the lowest-id enabled thread with an awake transition.
/// Returns 0 when nothing is schedulable (a leaf, or a sleep-set-blocked
/// node whose executions are covered elsewhere).
c11::ThreadId pick_first(const Node& n) {
  // One pass over the signatures (sorted by thread ascending), tracking
  // per thread-group whether some step is awake and whether every step is
  // silent — instead of rescanning all sigs once per enabled thread.
  c11::ThreadId best = 0;
  c11::ThreadId cur = 0;
  bool cur_awake = false;
  bool cur_all_silent = true;
  const auto flush = [&]() -> c11::ThreadId {
    if (cur != 0 && cur_awake) {
      if (cur_all_silent) return cur;
      if (best == 0) best = cur;
    }
    return 0;
  };
  for (std::size_t j = 0; j < n.sigs.size(); ++j) {
    const StepSig& sig = n.sigs[j];
    if (sig.thread != cur) {
      if (const c11::ThreadId r = flush(); r != 0) return r;
      cur = sig.thread;
      cur_awake = false;
      cur_all_silent = true;
    }
    if (!sig.silent) cur_all_silent = false;
    if (!cur_awake && !bits_test(n.sleep, n.ids[j])) cur_awake = true;
  }
  if (const c11::ThreadId r = flush(); r != 0) return r;
  return best;
}

/// Queues an item; its node counts it as open until the item has run.
void push_item(Engine& eng, std::size_t me, Item item) {
  eng.pending.fetch_add(1, std::memory_order_acq_rel);
  item.node->open.fetch_add(1, std::memory_order_relaxed);
  eng.deques.push_local(me, std::move(item));
}

/// Schedules the first thread of a node that has just been visited and
/// queues its expansion (none for a leaf or a sleep-blocked node).
void schedule_first(Engine& eng, std::size_t me, const NodePtr& node) {
  const c11::ThreadId first = pick_first(*node);
  if (first == 0) return;
  {
    std::lock_guard lock(node->mu);
    node->scheduled.push_back(first);
  }
  ++eng.worker_stats[me].enqueued;
  push_item(eng, me, Item{node, first});
}

/// Source-set backtrack insertion: unless some initial is already
/// scheduled at `target`, schedule one — preferring a thread with an
/// awake transition. When every initial is fully asleep, the race's
/// reversal is covered by the sibling subtree that put it to sleep; the
/// first initial is still marked scheduled so later races don't
/// reconsider the node. `target` is an ancestor of the node whose item is
/// running, so it is not complete yet.
void insert_backtrack(Engine& eng, std::size_t me, const NodePtr& target,
                      std::span<const c11::ThreadId> initials) {
  std::lock_guard lock(target->mu);
  for (c11::ThreadId q : initials) {
    if (contains(target->scheduled, q)) return;
  }
  for (c11::ThreadId q : initials) {
    if (has_awake_step(*target, q)) {
      target->scheduled.push_back(q);
      ++eng.totals[me].stats.backtracks;
      push_item(eng, me, Item{target, q});
      return;
    }
  }
  target->scheduled.push_back(initials.front());
}

/// Detects every reversible race between the step about to be taken from
/// `self` (signature `t_sig`) and the spine E, and inserts the source-set
/// backtrack points. Fills `row_out` with t's happens-before row (hb_row
/// for the child node the step creates), so each transition costs one
/// O(depth^2) row build — the rows of the spine events are cached in their
/// nodes.
void race_reversals(Engine& eng, std::size_t me, const NodePtr& self,
                    const StepSig& t_sig, std::vector<char>& row_out) {
  Node& n = *self;
  const std::size_t d = n.depth;
  row_out.clear();
  if (d == 0) return;

  // (Thread-local scratch: one call per executed transition, keep it
  // allocation-free.)
  thread_local std::vector<Node*> nodes;
  spine_nodes(n, nodes);
  const auto sig_at = [&](std::size_t k) -> const StepSig& {
    return nodes[k]->in_sig;
  };
  const auto row_at = [&](std::size_t k) -> const std::vector<char>& {
    return nodes[k]->hb_row;
  };

  build_hb_row(d, t_sig, sig_at, row_out);

  for_each_reversible_race(
      d, t_sig, sig_at, row_at, row_out, [&](std::size_t i) {
        // v = notdep(e_i, E).t: the steps after e_i not happening-after
        // it, then t. The initial threads are the threads of v's weak
        // initials (each weak initial is its thread's first step in v).
        thread_local std::vector<std::size_t> v;
        notdep_indices(i, d, row_at, v);
        v.push_back(d + 1);  // t itself
        const auto v_sig = [&](std::size_t a) -> const StepSig& {
          return v[a] <= d ? sig_at(v[a]) : t_sig;
        };
        thread_local std::vector<std::size_t> wi;
        weak_initial_indices(v.size(), v_sig, wi);
        thread_local std::vector<c11::ThreadId> initials;
        initials.clear();
        for (const std::size_t a : wi) initials.push_back(v_sig(a).thread);
        if (initials.empty()) return;  // unreachable: v's head is initial

        insert_backtrack(eng, me, nodes[i]->parent, initials);
      });
}

/// Replays, at a pruned revisit, the races its subtree would have found
/// against the spine: each non-silent signature t of the record's summary
/// is treated as the next step after E, and every reversible race of t
/// with a spine event e_i schedules the candidate initials of
/// summary_race_initials at pre(e_i) (`enabled`: the record's enabled
/// set). Happens-before through spine events alone under-approximates the
/// real hb, so the replayed races over-approximate the real ones.
void compensate(Engine& eng, std::size_t me, Node& n, const Bits& enabled) {
  const std::size_t d = n.depth;
  thread_local std::vector<Node*> nodes;
  spine_nodes(n, nodes);
  const auto sig_at = [&](std::size_t k) -> const StepSig& {
    return nodes[k]->in_sig;
  };
  const auto row_at = [&](std::size_t k) -> const std::vector<char>& {
    return nodes[k]->hb_row;
  };
  thread_local std::vector<StepSig> enabled_sigs;
  enabled_sigs.clear();
  bits_for_each(enabled.data(), enabled.size(), [&](std::uint32_t id) {
    enabled_sigs.push_back(eng.sig_table.sig(id));
  });

  thread_local std::vector<char> row;
  thread_local std::vector<c11::ThreadId> initials;
  bits_for_each(n.summary.data(), n.summary.size(), [&](std::uint32_t id) {
    const StepSig& t_sig = eng.sig_table.sig(id);
    if (t_sig.silent) return;
    build_hb_row(d, t_sig, sig_at, row);
    for_each_reversible_race(
        d, t_sig, sig_at, row_at, row, [&](std::size_t i) {
          const NodePtr& target = nodes[i]->parent;
          if (summary_race_initials(i, d, t_sig, sig_at, row_at,
                                    enabled_sigs, initials)) {
            for (const c11::ThreadId q : initials) {
              insert_backtrack(eng, me, target, std::span(&q, 1));
            }
          } else {
            insert_backtrack(eng, me, target, initials);
          }
        });
  });
}

/// Runs when a node's open count drops to zero: publishes the record of a
/// visit that expanded, folds the node's incoming signature and summary
/// into its parent's summary, and completes the parent in turn when that
/// was its last open child. A stopped search publishes nothing: its nodes
/// may be complete only because their items were dropped.
void complete(Engine& eng, Node* n) {
  obs::ScopedPhase probe_phase(obs::Phase::kSeenProbe);
  // The acq_rel decrements that closed n order every child's fold (under
  // n->mu) before this read of n->summary.
  while (!eng.stop.load(std::memory_order_acquire)) {
    if (!n->pruned) {
      thread_local Bits enabled;
      enabled.clear();
      for (const std::uint32_t id : n->ids) bits_set(enabled, id);
      eng.records.offer(n->state, n->sleep, enabled, n->summary);
    }
    Node* p = n->parent.get();
    if (p == nullptr) {
      eng.root_complete.store(true, std::memory_order_release);
      return;
    }
    {
      std::lock_guard lock(p->mu);
      bits_or(p->summary, n->summary);
      bits_set(p->summary, n->in_id);
    }
    if (p->open.fetch_sub(1, std::memory_order_acq_rel) != 1) return;
    n = p;
  }
}

/// Marks one of the node's open items (or its inline visit) done.
void settle(Engine& eng, Node* n) {
  if (n->open.fetch_sub(1, std::memory_order_acq_rel) == 1) complete(eng, n);
}

/// Expands one scheduled (node, thread) pair: for every enabled transition
/// of the thread, detects races, and creates the child node with its hb
/// row and sleep set — all from signatures, without reading a
/// configuration — and queues the child's arrival.
void expand_item(Engine& eng, std::size_t me, const Item& item) {
  Node& n = *item.node;
  ++eng.worker_stats[me].processed;
  ExploreStats& my = eng.totals[me].stats;

  for (std::size_t i = 0; i < n.sigs.size(); ++i) {
    if (n.sigs[i].thread != item.thread) continue;
    if (eng.stop.load(std::memory_order_acquire)) return;

    const StepSig& sig = n.sigs[i];
    const std::uint32_t id = n.ids[i];
    if (bits_test(n.sleep, id)) {
      continue;  // covered by an earlier sibling subtree (counted on arrival)
    }

    // Sleep-order prefix: the sibling transitions executed from n before
    // this one (their subtrees cover what this child may sleep on). The
    // snapshot-and-append is one critical section so concurrent executors
    // at the same node order themselves consistently.
    thread_local Bits prefix;
    {
      std::lock_guard lock(n.mu);
      prefix = n.executed;
      bits_set(n.executed, id);
    }

    eng.transitions.fetch_add(1, std::memory_order_relaxed);
    if (n.redundant) ++my.redundant_transitions;

    NodePtr child = acquire_node(eng);
    {
      obs::ScopedPhase race_phase(obs::Phase::kRaceDetect);
      race_reversals(eng, me, item.node, sig, child->hb_row);
    }
    child->parent = item.node;
    child->depth = n.depth + 1;
    child->in_sig = sig;
    child->in_id = id;
    child->in_step = n.steps[i];
    my.max_depth = std::max<std::size_t>(my.max_depth, child->depth + 1);

    // Godefroid's sleep rule at transition granularity: a sibling
    // transition stays asleep in the child iff it commutes with the taken
    // step — inherited sleep plus the earlier-executed siblings.
    prefix.grow(n.sleep.size());
    for (std::size_t w = 0; w < n.sleep.size(); ++w) prefix[w] |= n.sleep[w];
    bits_for_each(prefix.data(), prefix.size(), [&](std::uint32_t s) {
      if (independent(eng.sig_table.sig(s), sig)) bits_set(child->sleep, s);
    });
    // n stays open until the child completes.
    n.open.fetch_add(1, std::memory_order_relaxed);
    push_item(eng, me, Item{std::move(child), kArrive});
  }
}

/// Visits a node on worker `me`'s cursor: moves the cursor onto it, then
/// accounts the unique state (seen set, on_state / on_final). A revisit
/// whose state has a record covering its sleep set stops there, replaying
/// the record's races (compensate). Any other visit enumerates its
/// transitions, tallies what the sleep set prunes there and queues the
/// expansion of its first thread.
void arrive(Engine& eng, std::size_t me, const NodePtr& node) {
  NodeCursor& nc = eng.cursors[me];
  Node& x = *node;
  ExploreStats& my = eng.totals[me].stats;

  if (eng.visitor.on_transition) {
    // Cold path: the visitor contract hands over the parent configuration
    // and a materialized ConfigStep, so copy the parent once and move the
    // cursor's configuration through the view (and back).
    move_to(eng, nc, x.parent);
    const interp::Config pre = nc.at.config();
    move_to(eng, nc, node);
    interp::Config& config = nc.at.config();
    interp::ConfigStep view;
    view.thread = x.in_sig.thread;
    view.silent = x.in_sig.silent;
    if (!x.in_sig.silent) {
      view.event = static_cast<c11::EventId>(config.exec.size() - 1);
      view.observed = x.in_step.observed;  // frame tag (sig is canonical)
      view.action = config.exec.event(view.event).action;
    }
    view.loop_unfold = x.in_step.loop_unfold;
    view.next = std::move(config);
    const bool keep = eng.visitor.on_transition(pre, view);
    config = std::move(view.next);
    if (!keep) {
      eng.record_abort(spine_trace(eng, &x));
      return;
    }
  } else {
    move_to(eng, nc, node);
  }
  interp::Config& config = nc.at.config();

  InsertResult ins;
  {
    obs::ScopedPhase probe_phase(obs::Phase::kSeenProbe);
    ins = eng.seen.insert(config.fingerprint());
  }
  x.state = ins.id;
  x.redundant = x.parent->redundant || !ins.inserted;
  if (config.terminated()) ++my.complete_traces;
  if (ins.inserted) {
    const std::size_t states =
        eng.states.fetch_add(1, std::memory_order_relaxed) + 1;
    if (states >= eng.options.max_states) {
      eng.truncated.store(true);
      eng.stop.store(true);
      return;
    }
    if (eng.visitor.on_state && !eng.visitor.on_state(config)) {
      eng.record_abort(spine_trace(eng, &x));
      return;
    }
    if (config.terminated()) {
      ++my.finals;
      if (eng.visitor.on_final && !eng.visitor.on_final(config)) {
        eng.record_abort(spine_trace(eng, &x));
        return;
      }
    }
  } else {
    ++my.merged;
    ++eng.worker_stats[me].merged;
    // Godefroid's state-caching rule for sleep sets: a complete visit that
    // slept on less has explored every future this revisit asks for.
    thread_local Bits enabled;
    bool covered;
    {
      obs::ScopedPhase probe_phase(obs::Phase::kSeenProbe);
      covered = eng.records.covers(ins.id, x.sleep, x.summary, enabled);
    }
    if (covered) {
      x.pruned = true;
      obs::ScopedPhase race_phase(obs::Phase::kRaceDetect);
      compensate(eng, me, x, enabled);
      return;
    }
  }

  prepare_node(eng, x, config);

  // The node's transitions already covered elsewhere are what the sleep
  // filter refuses to run (whether or not their thread ever gets scheduled
  // here).
  std::size_t pruned = 0;
  for (const std::uint32_t id : x.ids) pruned += bits_test(x.sleep, id);
  my.por_pruned += pruned;
  if (!x.sigs.empty() && pruned == x.sigs.size()) {
    // Every enabled transition is asleep: the execution dies here and its
    // prefix was wasted (stats.sleep_blocked).
    ++my.sleep_blocked;
  }

  schedule_first(eng, me, node);
}

/// Progress heartbeat: the winning worker samples the engine counters. The
/// per-worker slabs are owner-written plain fields; sampling them here is
/// unsynchronized by design (monitoring only, no control flow depends on
/// the values).
void emit_heartbeat(Engine& eng) {
  obs::ProgressSnapshot snap;
  snap.states = eng.states.load(std::memory_order_relaxed);
  snap.transitions = eng.transitions.load(std::memory_order_relaxed);
  snap.frontier = eng.pending.load(std::memory_order_relaxed);
  snap.seen_bytes = eng.seen_bytes();
  for (const WorkerTotals& w : eng.totals) {
    snap.finals += w.stats.finals;
    snap.sleep_blocked += w.stats.sleep_blocked;
    snap.redundant += w.stats.redundant_transitions;
    snap.max_depth = std::max(snap.max_depth, w.stats.max_depth);
  }
  snap.workers.reserve(eng.worker_stats.size());
  for (const WorkerStats& ws : eng.worker_stats) {
    snap.workers.push_back({ws.processed, ws.enqueued, ws.steals, ws.merged});
  }
  eng.options.telemetry->emit(std::move(snap));
}

void worker_loop(Engine& eng, std::size_t me) {
  obs::WorkerScope obs_scope(eng.options.telemetry,
                             static_cast<std::uint32_t>(me));
  constexpr int kYieldRounds = 64;
  int idle_rounds = 0;
  while (true) {
    if (eng.stop.load(std::memory_order_acquire)) return;
    std::optional<Item> item = eng.deques.pop_local(me);
    if (!item && eng.deques.worker_count() > 1) {
      item = eng.deques.steal(me);
      if (item) {
        ++eng.worker_stats[me].steals;
        obs::instant_event("steal");
      }
    }
    if (!item) {
      if (eng.pending.load(std::memory_order_acquire) == 0) return;
      // Sequential: nothing can appear while we hold the only deque.
      if (eng.deques.worker_count() == 1) return;
      if (++idle_rounds <= kYieldRounds) {
        std::this_thread::yield();
      } else {
        std::this_thread::sleep_for(std::chrono::microseconds(100));
      }
      continue;
    }
    idle_rounds = 0;
    if (item->thread == kArrive) {
      arrive(eng, me, item->node);
    } else {
      expand_item(eng, me, *item);
    }
    settle(eng, item->node.get());
    eng.pending.fetch_sub(1, std::memory_order_acq_rel);
    if (eng.options.telemetry != nullptr &&
        eng.options.telemetry->heartbeat_due()) {
      emit_heartbeat(eng);
    }
  }
}

}  // namespace

ExploreResult explore_dpor(interp::Config start,
                           const ExploreOptions& options,
                           const Visitor& visitor, std::size_t workers,
                           std::vector<WorkerStats>* worker_stats) {
  if (workers == 0) workers = 1;
  Engine eng(std::move(start), options, visitor, workers);
  // Scheduling points are visible (memory) steps only: deterministic
  // silent/register steps, and the loop unfoldings the bound allows, never
  // branch the search and are fused into the preceding transition (an
  // unbounded search keeps its unfoldings as transitions). Invisible
  // transitions are never scheduling points in DPOR; this is what makes
  // the reduction bite on register-heavy litmus programs. Returned traces
  // record these step options.
  eng.options.step.tau_compress = interp::TauCompress::kFused;

  obs::PhaseProfile profile_base;
  if (options.telemetry != nullptr) profile_base = options.telemetry->profile();

  auto finish = [&](bool root_aborted = false) {
    ExploreResult res;
    // Per-worker reporting slabs merge via ExploreStats::operator+=; the
    // shared/atomic pieces are set once on the merged result afterwards.
    for (const WorkerTotals& w : eng.totals) res.stats += w.stats;
    res.stats.states = eng.states.load();
    res.stats.transitions = eng.transitions.load();
    res.stats.truncated = eng.truncated.load();
    res.stats.peak_seen_bytes = eng.seen_bytes();
    {
      std::lock_guard lock(eng.abort_mutex);
      res.aborted = eng.aborted || root_aborted;
      res.abort_trace = std::move(eng.abort_trace);
    }
    if (worker_stats != nullptr) *worker_stats = eng.worker_stats;
    if (options.telemetry != nullptr) {
      res.phases = options.telemetry->profile() - profile_base;
    }
    return res;
  };

  NodePtr root = acquire_node(eng);
  for (NodeCursor& nc : eng.cursors) nc.spine.push_back(root);
  eng.totals[0].stats.max_depth = 1;
  // The root's inline visit holds it open until its first item is queued.
  root->open.store(1, std::memory_order_relaxed);
  {
    // The root's visit runs on the calling thread with worker 0's cursor,
    // under its own telemetry scope, released before the workers attach
    // theirs.
    obs::WorkerScope obs_scope(options.telemetry, 0);
    interp::Config& config = eng.cursors[0].at.config();
    // sigma_0's cache is built directly; the root's fingerprint reads its
    // lanes.
    interp::prepare_cache(config);
    root->state = eng.seen.insert(config.fingerprint()).id;
    eng.states.store(1);
    if (visitor.on_state && !visitor.on_state(config)) {
      return finish(/*root_aborted=*/true);
    }
    if (config.terminated()) {
      eng.totals[0].stats.finals = 1;
      eng.totals[0].stats.complete_traces = 1;
      if (visitor.on_final && !visitor.on_final(config)) {
        return finish(/*root_aborted=*/true);
      }
    }
    prepare_node(eng, *root, config);
    schedule_first(eng, 0, root);
    settle(eng, root.get());
  }

  if (workers == 1) {
    worker_loop(eng, 0);
  } else {
    util::ThreadPool pool(workers);
    for (std::size_t k = 0; k < workers; ++k) {
      pool.submit([&eng, k] { worker_loop(eng, k); });
    }
    pool.wait_idle();
  }
  // A search that ran to the end completed every node, the root last.
  assert(eng.stop.load() || eng.root_complete.load());
  return finish();
}

}  // namespace rc11::mc
