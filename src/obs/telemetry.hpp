#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <mutex>
#include <string>
#include <vector>

#include "util/clock.hpp"

// Exploration telemetry: phase profiler, progress heartbeats, Chrome-trace
// export. This layer depends only on util -- mc and interp both include it,
// so it must never include mc/interp headers.
//
// Overhead contract: with no WorkerScope bound on the current thread (i.e.
// ExploreOptions::telemetry unset), ScopedPhase and instant_event are a
// thread-local load plus a branch -- no clock reads, no atomics, no
// allocation. Engines may therefore instrument hot paths unconditionally.
namespace rc11::obs {

// Phase taxonomy shared by all four engines. Timing is *exclusive* (flat):
// entering a nested phase suspends the parent, so e.g. push_event ticks that
// occur inside apply are attributed to push_event only and shares sum to <= 1.
enum class Phase : std::uint8_t {
  kEnumerate = 0,   // interp::enumerate_steps (step cache hit or miss)
                    // + step signatures (mc::sigs_of)
  kApply,           // interp::apply_step (+ the optimal engine's node
                    // Config copy)
  kUndo,            // interp::undo_step
  kPushEvent,       // Execution::push_event inside apply (relation growth)
  kFingerprint,     // Config::fingerprint
  kSeenProbe,       // seen-set insert/lookup
  kWakeupInsert,    // wakeup-tree sequence insertion (optimal engine)
  kRaceDetect,      // race reversal scan (DPOR/optimal engines)
};
inline constexpr std::size_t kPhaseCount = 8;

const char* phase_name(Phase p);

// Merged per-phase tick totals, attached to ExploreResult when telemetry is
// enabled and embedded into BENCH_*.json series.
struct PhaseProfile {
  struct Entry {
    std::uint64_t ns = 0;
    std::uint64_t count = 0;
  };
  std::array<Entry, kPhaseCount> phases{};

  PhaseProfile& operator+=(const PhaseProfile& o);
  PhaseProfile operator-(const PhaseProfile& o) const;  // per-field, clamped at 0

  bool empty() const;
  std::uint64_t total_ns() const;
  const Entry& operator[](Phase p) const {
    return phases[static_cast<std::size_t>(p)];
  }
  // Fraction of total instrumented time spent in `p`; 0 when empty().
  double share(Phase p) const;
  // Human-readable one-per-phase summary, sorted by descending time.
  std::string to_string() const;
};

// One recorded trace item: a completed phase span or an instant marker.
struct TraceEvent {
  enum class Kind : std::uint8_t { kSpan, kInstant };
  Kind kind = Kind::kSpan;
  Phase phase = Phase::kEnumerate;  // spans only
  const char* name = nullptr;       // instants only; must be static storage
  std::uint32_t worker = 0;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;  // == start_ns for instants
};

namespace detail {

inline std::uint64_t monotonic_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// Per-thread accumulator owned by a Telemetry run. All writes are from the
// bound thread only; totals are merged under the Telemetry lock when the
// WorkerScope ends, so the hot path performs zero atomic operations.
struct WorkerTrack {
  static constexpr int kMaxDepth = 16;

  std::array<std::uint64_t, kPhaseCount> ns{};
  std::array<std::uint64_t, kPhaseCount> count{};
  std::array<Phase, kMaxDepth> stack{};
  std::array<std::uint64_t, kMaxDepth> span_start{};
  int depth = 0;
  std::uint64_t seg_start = 0;

  std::uint32_t worker = 0;
  std::size_t span_cap = 0;  // 0: span recording disabled
  std::size_t span_next = 0;
  std::uint64_t spans_dropped = 0;
  std::vector<TraceEvent> spans;  // ring buffer, overwrites oldest

  void enter(Phase p) {
    const std::uint64_t now = monotonic_ns();
    if (depth > 0 && depth <= kMaxDepth) {
      ns[static_cast<std::size_t>(stack[depth - 1])] += now - seg_start;
    }
    if (depth < kMaxDepth) {
      stack[depth] = p;
      span_start[depth] = now;
    }
    ++depth;
    count[static_cast<std::size_t>(p)] += 1;
    seg_start = now;
  }

  void exit() {
    const std::uint64_t now = monotonic_ns();
    --depth;
    if (depth >= 0 && depth < kMaxDepth) {
      const Phase p = stack[depth];
      ns[static_cast<std::size_t>(p)] += now - seg_start;
      if (span_cap != 0) push_span(p, span_start[depth], now);
    }
    seg_start = now;
  }

  void push_span(Phase p, std::uint64_t start, std::uint64_t end);
  void push_instant(const char* name);
};

extern thread_local WorkerTrack* tl_track;

}  // namespace detail

class Telemetry;

// RAII: binds the calling thread to a per-worker track of `telemetry`. A
// null telemetry binds nothing, leaving ScopedPhase a no-op on this thread.
// On destruction the track's totals and spans merge into the Telemetry.
class WorkerScope {
 public:
  WorkerScope(Telemetry* telemetry, std::uint32_t worker);
  ~WorkerScope();
  WorkerScope(const WorkerScope&) = delete;
  WorkerScope& operator=(const WorkerScope&) = delete;

 private:
  Telemetry* telemetry_ = nullptr;
  detail::WorkerTrack* track_ = nullptr;
  detail::WorkerTrack* prev_ = nullptr;
};

// Scoped phase timer; see the overhead contract above.
class ScopedPhase {
 public:
  explicit ScopedPhase(Phase p) : track_(detail::tl_track) {
    if (track_ != nullptr) track_->enter(p);
  }
  ~ScopedPhase() {
    if (track_ != nullptr) track_->exit();
  }
  ScopedPhase(const ScopedPhase&) = delete;
  ScopedPhase& operator=(const ScopedPhase&) = delete;

 private:
  detail::WorkerTrack* track_;
};

// Records an instant marker (e.g. a successful steal) on the bound worker's
// trace track. `name` must point to static storage.
inline void instant_event(const char* name) {
  detail::WorkerTrack* t = detail::tl_track;
  if (t != nullptr) t->push_instant(name);
}

// Periodic progress report. Engines fill the counter fields; Telemetry::emit
// fills wall/elapsed/seq and the sliding-window rates.
struct ProgressSnapshot {
  std::uint64_t wall_ns = 0;
  std::uint64_t elapsed_ns = 0;
  std::uint64_t seq = 0;
  std::size_t states = 0;
  std::size_t transitions = 0;
  std::size_t finals = 0;
  std::size_t max_depth = 0;
  std::size_t frontier = 0;  // pending items / DFS depth, engine-dependent
  std::size_t seen_bytes = 0;
  std::size_t sleep_blocked = 0;
  std::size_t redundant = 0;
  double states_per_sec = 0.0;       // over the window since the last beat
  double transitions_per_sec = 0.0;  // over the window since the last beat
  struct WorkerCounters {
    std::size_t processed = 0;
    std::size_t enqueued = 0;
    std::size_t steals = 0;
    std::size_t merged = 0;
  };
  std::vector<WorkerCounters> workers;  // empty for sequential engines
};

class TelemetrySink {
 public:
  virtual ~TelemetrySink() = default;
  virtual void on_snapshot(const ProgressSnapshot& snap) = 0;
  virtual void on_run_end(const PhaseProfile& profile) { (void)profile; }
};

// One JSON object per line: {"type":"progress",...} heartbeats followed by a
// final {"type":"phase_profile",...} from finish().
class NdjsonSink final : public TelemetrySink {
 public:
  explicit NdjsonSink(std::ostream& os) : os_(os) {}
  void on_snapshot(const ProgressSnapshot& snap) override;
  void on_run_end(const PhaseProfile& profile) override;

 private:
  std::ostream& os_;
};

// Human-oriented one-line-per-beat progress, e.g. for --progress on stderr.
class TtySink final : public TelemetrySink {
 public:
  explicit TtySink(std::ostream& os) : os_(os) {}
  void on_snapshot(const ProgressSnapshot& snap) override;
  void on_run_end(const PhaseProfile& profile) override;

 private:
  std::ostream& os_;
};

// Fans a run out to several sinks (e.g. NDJSON file + TTY progress).
class MultiSink final : public TelemetrySink {
 public:
  void add(TelemetrySink* sink) {
    if (sink != nullptr) sinks_.push_back(sink);
  }
  void on_snapshot(const ProgressSnapshot& snap) override {
    for (TelemetrySink* s : sinks_) s->on_snapshot(snap);
  }
  void on_run_end(const PhaseProfile& profile) override {
    for (TelemetrySink* s : sinks_) s->on_run_end(profile);
  }

 private:
  std::vector<TelemetrySink*> sinks_;
};

// Run-scoped telemetry context, shared by all workers of an exploration (or
// by several sequential explorations, e.g. a litmus catalogue tour).
class Telemetry {
 public:
  struct Options {
    TelemetrySink* sink = nullptr;   // heartbeat destination; null: none
    std::uint64_t heartbeat_ns = 0;  // 0: heartbeats disabled
    util::Clock* clock = nullptr;    // null: process steady clock
    std::size_t trace_capacity = 0;  // per-worker span ring size; 0: no trace
  };

  Telemetry();  // all options defaulted
  explicit Telemetry(Options opts);

  // True at most once per heartbeat interval across all callers (atomic
  // deadline CAS). The winner builds a ProgressSnapshot and calls emit().
  bool heartbeat_due();

  // Fills the bookkeeping fields of `snap` and forwards it to the sink.
  // Window rates reset (report 0) when counters move backwards, which
  // happens when a new exploration reuses this Telemetry.
  void emit(ProgressSnapshot snap);

  // Emits sink->on_run_end(profile()) once. Call after all WorkerScopes
  // have ended.
  void finish();

  // Merged phase profile of all WorkerScopes detached so far.
  PhaseProfile profile() const;

  // Writes a Chrome trace-event JSON array (chrome://tracing / Perfetto):
  // one tid track per worker with sorted, matched B/E phase spans plus
  // instant events; thread_name metadata per track.
  void write_chrome_trace(std::ostream& os) const;

  std::uint64_t now_ns() { return clock_->now_ns(); }
  std::uint64_t start_ns() const { return t0_; }
  std::uint64_t heartbeats_emitted() const;
  const Options& options() const { return opts_; }

 private:
  friend class WorkerScope;
  detail::WorkerTrack* acquire_track(std::uint32_t worker);
  void release_track(detail::WorkerTrack* track);

  Options opts_;
  util::Clock* clock_;
  std::uint64_t t0_;
  std::atomic<std::uint64_t> next_beat_;
  mutable std::mutex mu_;
  PhaseProfile profile_;
  std::vector<std::vector<TraceEvent>> worker_events_;
  std::uint64_t seq_ = 0;
  std::uint64_t last_beat_ns_ = 0;
  std::size_t last_states_ = 0;
  std::size_t last_transitions_ = 0;
  bool finished_ = false;
};

}  // namespace rc11::obs
