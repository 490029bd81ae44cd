// C11 states (Definition 3.1): sigma = ((D, sb), rf, mo).
//
// An Execution owns the event list D and the three primitive relations.
// Derived relations (sw, hb, fr, eco) are computed by derived.hpp; the
// transition rules of Figure 3 are in event_semantics.hpp.
//
// Events are identified by dense indices (tags); relations are bitset
// matrices over those indices. Executions only ever grow: the `(D, sb) + e`
// operator appends the event and extends all relations by one row/column.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "c11/event.hpp"
#include "util/bitset.hpp"
#include "util/fingerprint.hpp"
#include "util/relation.hpp"

namespace rc11::c11 {

class Execution {
 public:
  Execution() = default;

  /// The initial state sigma_0 = ((I, {}), {}, {}): one initialising write
  /// per variable, executed by thread 0, unordered amongst themselves
  /// (Section 3.1). `init` lists (variable, initial value) pairs.
  static Execution initial(
      const std::vector<std::pair<VarId, Value>>& init);

  // --- Event access -------------------------------------------------------

  [[nodiscard]] std::size_t size() const { return events_.size(); }
  [[nodiscard]] const Event& event(EventId e) const { return events_[e]; }
  [[nodiscard]] const std::vector<Event>& events() const { return events_; }

  /// All initialising writes I_sigma = D n IWr.
  [[nodiscard]] const util::Bitset& init_writes() const { return inits_; }

  /// Wr n D, Rd n D, U n D, F n D as index sets.
  [[nodiscard]] const util::Bitset& writes() const { return writes_; }
  [[nodiscard]] const util::Bitset& reads() const { return reads_; }
  [[nodiscard]] const util::Bitset& updates() const { return updates_; }
  [[nodiscard]] const util::Bitset& fences() const { return fences_; }

  /// Writes (including updates) on variable x.
  [[nodiscard]] util::Bitset writes_on(VarId x) const;

  /// Events of thread t.
  [[nodiscard]] util::Bitset events_of(ThreadId t) const;

  /// Largest thread id present (including thread 0).
  [[nodiscard]] ThreadId max_thread() const { return max_thread_; }

  /// Largest variable id present plus one.
  [[nodiscard]] std::size_t var_count() const { return var_count_; }

  // --- Primitive relations ------------------------------------------------

  /// sb is structurally determined by the event sequence (initialising
  /// writes before every non-init event, same-thread events by position),
  /// so the hot append/pop path never maintains it — the materialized
  /// relation is rebuilt here on first access after a mutation. Every
  /// consumer (derived-relation rebuilds, canonical keys, axiom checks,
  /// pretty-printers) is a cold path.
  [[nodiscard]] const util::Relation& sb() const {
    if (sb_stale_) materialize_sb();
    return sb_;
  }
  [[nodiscard]] const util::Relation& rf() const { return rf_; }
  [[nodiscard]] const util::Relation& mo() const { return mo_; }

  // --- State construction (used by the event semantics) --------------------

  /// `(D, sb) + e` (Section 3.2): appends the event, ordering every prior
  /// event of tid(e) and of thread 0 sb-before it. Returns the new tag.
  /// Invalidates the incremental cache (push_event is the maintaining
  /// variant used on the exploration hot path).
  EventId add_event(ThreadId tid, const Action& a);

  // --- Incremental delta API (exploration hot path) -------------------------
  //
  // The operational semantics is append-only: one step adds one event plus
  // a handful of relation edges, all incident to the new event (Section
  // 3.2), and never adds a derived-relation pair between two older events.
  // push_event exploits this: it appends the event together with its
  // rf/mo edges (selected by the action kind and the observed write `w`,
  // exactly as the Figure 3 rules dictate) and extends the cached derived
  // state — hb, eco (with maintained inverses), the per-thread encountered
  // sets, the covered set and the running fingerprint lanes — in time
  // proportional to the new event's neighbourhood instead of re-running
  // the closures. pop_event undoes the append exactly (LIFO only): all
  // added edges are incident to the popped event, so removing them,
  // shrinking every relation and bitset by one element and replaying the
  // recorded deltas restores the previous state bit for bit. Neither
  // direction walks the older events: relations size their rows lazily
  // (util::Relation), so both cost time in the new event's own pairs.
  //
  // The from-scratch functions (compute_derived, encountered_writes,
  // covered_writes, fingerprint_uncached) remain the oracle; the
  // incremental cache is differentially tested against them after every
  // step (tests/test_incremental.cpp).

  /// Undo record for one push_event. Opaque to callers; tokens must be
  /// popped in LIFO order. Reusable across push/pop cycles (its buffers
  /// keep their capacity).
  struct UndoToken {
    EventId event = kNoEvent;
    ThreadId tid = 0;
    EventId observed = kNoEvent;
    ThreadId prev_max_thread = 0;
    std::uint32_t prev_var_count = 0;
    std::uint32_t prev_thread_vec = 0;  ///< cache thread-vector length before
    bool covered_added = false;
    util::Bitset ew_delta;  ///< bits added to encountered[tid] (universe n)
    std::uint64_t fp_delta_a = 0;
    std::uint64_t fp_delta_b = 0;
  };

  /// Appends event (tid, a) observing write `w` and adds its rf/mo edges:
  /// reads add rf(w, e); writes insert e immediately after w in mo;
  /// updates do both (Figure 3). Fences observe nothing — pass
  /// w = kNoEvent; they add no rf/mo edges but may gain hb in-edges via
  /// fence-mediated synchronisation. Premises (w observable, uncovered for
  /// writes/updates, value agreement) must have been established by the
  /// caller via the cached queries below. tid must not be kInitThread.
  EventId push_event(ThreadId tid, const Action& a, EventId w,
                     UndoToken& tok);

  /// Exact inverse of the matching push_event (LIFO).
  void pop_event(const UndoToken& tok);

  /// Builds the incremental cache from the from-scratch oracles if it is
  /// not already valid. Cheap no-op when valid.
  void ensure_cache();
  [[nodiscard]] bool cache_valid() const { return cache_.valid; }

  /// The maintained hb, or null while the cache is invalid (before the
  /// first cached query, after a raw mutation). Const, so observers that
  /// only see a const Execution, such as explorer visitors, read hb
  /// without triggering a rebuild.
  [[nodiscard]] const util::Relation* hb_if_cached() const {
    return cache_.valid ? &cache_.hb : nullptr;
  }

  /// The canonical id of every event as push_event maintains it, or null
  /// while the cache is invalid. An event of thread t packs
  /// (t << 32) | sb-position; an initialising write packs
  /// (var << 8) | occurrence among the initialising writes of var.
  [[nodiscard]] const std::vector<std::uint64_t>* cids_if_cached() const {
    return cache_.valid ? &cache_.cid : nullptr;
  }

  /// Cached derived state (ensure_cache() is called internally).
  [[nodiscard]] const util::Relation& cached_hb();
  [[nodiscard]] const util::Relation& cached_eco();
  [[nodiscard]] const util::Bitset& cached_encountered(ThreadId t);
  [[nodiscard]] const util::Bitset& cached_covered();
  [[nodiscard]] const util::Bitset& cached_thread_events(ThreadId t);
  [[nodiscard]] const util::Bitset& cached_var_writes(VarId x);

  /// Grows the cached per-thread vectors (encountered / thread_events) so
  /// every thread id up to `count` inclusive is materialised. References
  /// returned by cached_encountered / cached_thread_events alias vector
  /// elements; callers that hold such references across further cached_*
  /// calls (the step-enumeration loop) reserve the full program width up
  /// front so a lazy first-touch grow can never reallocate under them.
  void reserve_cache_threads(ThreadId count);

  /// Number of thread slots currently materialised in the cache — lets
  /// callers assert (debug builds) that no reallocation happened while
  /// they held references into the cached per-thread vectors.
  [[nodiscard]] std::size_t cached_thread_count() const {
    return cache_.encountered.size();
  }

  // --- Step-cache version counters ------------------------------------------
  //
  // Monotonic counters consumed by the interp-layer step-enumeration cache
  // (interp::Config::StepCache). A thread's enumerated transitions on
  // variable x depend only on writes(x), their mo rows, the covered set
  // restricted to x, and the thread's own encountered set — all of which
  // can change only when a write or update on x is pushed or popped. Both
  // directions bump the counters: restoring a version on pop would let a
  // *different* write pushed after the undo reproduce a previously seen
  // version number and false-validate a stale cache entry, so the streams
  // only ever move forward.

  /// Bumped on every push or pop of a write/update on x.
  [[nodiscard]] std::uint64_t var_write_version(VarId x) const {
    return x < var_write_ver_.size() ? var_write_ver_[x] : 0;
  }

  /// Bumped on every push or pop of an update on x (the only operations
  /// that change the covered set).
  [[nodiscard]] std::uint64_t var_cover_version(VarId x) const {
    return x < var_cover_ver_.size() ? var_cover_ver_[x] : 0;
  }

  /// Bumped on every from-scratch cache rebuild (ensure_cache after a raw
  /// mutation such as add_mo / clear_rf). Any step-cache entry minted under
  /// an older epoch is stale regardless of its per-variable versions.
  [[nodiscard]] std::uint64_t cache_epoch() const { return cache_epoch_; }

  /// Adds an rf edge w -> r. Caller guarantees var/value agreement.
  void add_rf(EventId w, EventId r);

  /// mo[w, e] (Section 3.2): inserts e immediately after w in mo, i.e.
  ///   mo := mo  u  (mo+w x {e})  u  ({e} x mo[w])
  /// where mo+w = {w} u mo^-1[w] and mo[w] is the set of mo-successors.
  void mo_insert_after(EventId w, EventId e);

  /// Raw relation mutation used by the axiomatic enumerator, which builds
  /// and retracts rf/mo choices wholesale rather than incrementally. These
  /// invalidate the incremental cache; the next cached query or push_event
  /// rebuilds it from the from-scratch oracles.
  void add_mo(EventId a, EventId b) {
    mo_.add(a, b);
    invalidate_cache();
  }
  void remove_mo(EventId a, EventId b) {
    mo_.remove(a, b);
    invalidate_cache();
  }
  void remove_rf(EventId w, EventId r) {
    rf_.remove(w, r);
    invalidate_cache();
  }
  void clear_rf() {
    rf_ = util::Relation(events_.size());
    invalidate_cache();
  }
  void clear_mo() {
    mo_ = util::Relation(events_.size());
    invalidate_cache();
  }

  // --- Queries -------------------------------------------------------------

  /// sigma.last(x): the write to x not succeeded by another write to x in
  /// mo (Section 5.1). Unique in valid states; if several writes are
  /// mo-maximal (invalid state) the lowest tag is returned.
  [[nodiscard]] EventId last(VarId x) const;

  /// The write event that read r reads from, or kNoEvent.
  [[nodiscard]] EventId rf_source(EventId r) const;

  /// True iff every modification of x in D is an update or initialising
  /// write ("update-only variable", Section 5.1).
  [[nodiscard]] bool is_update_only(VarId x) const;

  /// The restriction operator of Theorem 4.8: keeps only the events in
  /// `keep` (re-tagged densely, preserving relative order) and intersects
  /// sb, rf and mo with keep x keep. Validity is preserved whenever `keep`
  /// is downward closed under sb u rf and contains the initialising
  /// writes (the completeness proof walks such prefixes).
  [[nodiscard]] Execution restrict(const util::Bitset& keep) const;

  /// Downward closure of `seed` under sb u rf (plus all initialising
  /// writes) — the prefix sets for which `restrict` preserves validity.
  [[nodiscard]] util::Bitset sbrf_prefix(const util::Bitset& seed) const;

  // --- Canonical form (state-space deduplication) ---------------------------
  //
  // Tags depend on the interleaving in which events were added, but two
  // interleavings of independent steps produce isomorphic executions
  // (Proposition 2.3 / 4.1). The canonical key renumbers events by
  // (tid, sb-position within the thread) and serialises events plus
  // relation bits, so isomorphic executions compare equal.

  [[nodiscard]] std::vector<std::uint64_t> canonical_key() const;

  [[nodiscard]] std::size_t canonical_hash() const;

  /// 128-bit digest of the canonical form. The digest hashes a commutative
  /// accumulation of per-fact hashes — one fact per event (keyed by its
  /// interleaving-invariant canonical id: thread plus sb-position) and one
  /// per sb/rf/mo pair in canonical-id terms — so it is maintained
  /// incrementally by push_event/pop_event (new facts are added to, and
  /// subtracted from, two 64-bit lanes) and never needs the canonical word
  /// sequence on the hot path. Isomorphic executions (same canonical form)
  /// have equal fingerprints; the digest is deterministic across runs.
  [[nodiscard]] util::Fingerprint fingerprint() const;

  /// As fingerprint(), but always recomputed from scratch, ignoring the
  /// incremental lanes — the oracle for the differential tests.
  [[nodiscard]] util::Fingerprint fingerprint_uncached() const;

  /// Streams the fingerprint material into an existing hasher; Config
  /// layers its thread-local state (continuations, registers, unfold
  /// counts) on top.
  void fingerprint_into(util::FingerprintHasher& h) const;

  /// Structural equality on raw tags (not canonical). sb is derived from
  /// the event sequence, so comparing the events covers it.
  [[nodiscard]] bool operator==(const Execution& o) const {
    return events_ == o.events_ && rf_ == o.rf_ && mo_ == o.mo_;
  }

 private:
  /// Core append shared by add_event and push_event: event list, sb edges,
  /// kind bitsets, max_thread_/var_count_. Does not touch the cache.
  EventId append_event_core(ThreadId tid, const Action& a);

  void invalidate_cache() { cache_.valid = false; }

  /// Advances the per-variable version streams for a pushed or popped
  /// event with action `a` (no-op for reads: a read changes only the
  /// acting thread's encountered set, which its own enumeration never
  /// caches across).
  void bump_var_versions(const Action& a) {
    if (!a.is_write()) return;
    const VarId x = a.var;
    if (var_write_ver_.size() <= x) var_write_ver_.resize(x + 1, 0);
    ++var_write_ver_[x];
    if (a.is_update()) {
      if (var_cover_ver_.size() <= x) var_cover_ver_.resize(x + 1, 0);
      ++var_cover_ver_[x];
    }
  }

  /// From-scratch fingerprint lanes (the commutative fact sums).
  void compute_fp_lanes(std::uint64_t& a, std::uint64_t& b) const;

  /// Canonical ids (tid, sb-position packed into one word) for every event,
  /// recomputed from scratch; push_event extends cache_.cid incrementally
  /// with the same assignment.
  [[nodiscard]] std::vector<std::uint64_t> compute_cids() const;

  /// Rebuilds sb_ from the event sequence (cold; see sb()).
  void materialize_sb() const;

  std::vector<Event> events_;
  /// Lazily materialized program order (mutable: sb() is const and rebuilds
  /// on demand; sound under the one-owner-per-Execution discipline the
  /// cache already relies on).
  mutable util::Relation sb_;
  mutable bool sb_stale_ = false;
  util::Relation rf_, mo_;
  util::Bitset inits_, writes_, reads_, updates_, fences_;
  ThreadId max_thread_ = 0;
  std::size_t var_count_ = 0;

  /// Incrementally maintained derived state. Valid only between
  /// ensure_cache() and the next raw mutation; push_event/pop_event keep
  /// it valid. Copied with the Execution (clones of a spine configuration
  /// keep their warm cache).
  struct Cache {
    bool valid = false;
    util::Relation hb;   ///< (sb u sw)+, inverse maintained
    util::Relation eco;  ///< (fr u mo u rf)+, inverse maintained
    std::vector<util::Bitset> encountered;    ///< EW per thread id
    std::vector<util::Bitset> thread_events;  ///< events of thread id
    std::vector<util::Bitset> var_writes;     ///< writes per variable
    util::Bitset covered;                     ///< CW
    std::vector<std::uint64_t> cid;           ///< canonical id per event
    std::uint64_t fp_a = 0;  ///< commutative fingerprint lanes
    std::uint64_t fp_b = 0;
  };
  Cache cache_;

  /// Step-cache version streams (see the public accessors above). Stored
  /// outside Cache: they survive cache rebuilds and are never truncated on
  /// pop_event — monotonicity is what makes version equality a sound
  /// freshness test. Copied with the Execution, so a forked configuration
  /// continues its own stream and comparisons never cross streams.
  std::uint64_t cache_epoch_ = 0;
  std::vector<std::uint64_t> var_write_ver_;
  std::vector<std::uint64_t> var_cover_ver_;
};

}  // namespace rc11::c11
