#include "obs/telemetry.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <limits>
#include <ostream>

namespace rc11::obs {

namespace {

constexpr std::uint64_t kNoBeat = std::numeric_limits<std::uint64_t>::max();

void append_double(std::string& out, double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  out += buf;
}

void append_u64(std::string& out, std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%" PRIu64, v);
  out += buf;
}

std::string human_bytes(std::size_t bytes) {
  const char* units[] = {"B", "KiB", "MiB", "GiB"};
  double v = static_cast<double>(bytes);
  std::size_t u = 0;
  while (v >= 1024.0 && u + 1 < 4) {
    v /= 1024.0;
    ++u;
  }
  std::string out;
  append_double(out, v, u == 0 ? 0 : 1);
  out += ' ';
  out += units[u];
  return out;
}

}  // namespace

const char* phase_name(Phase p) {
  switch (p) {
    case Phase::kEnumerate:
      return "enumerate";
    case Phase::kApply:
      return "apply";
    case Phase::kUndo:
      return "undo";
    case Phase::kPushEvent:
      return "push_event";
    case Phase::kFingerprint:
      return "fingerprint";
    case Phase::kSeenProbe:
      return "seen_probe";
    case Phase::kRaceDetect:
      return "race_detect";
  }
  return "unknown";
}

PhaseProfile& PhaseProfile::operator+=(const PhaseProfile& o) {
  for (std::size_t i = 0; i < kPhaseCount; ++i) {
    phases[i].ns += o.phases[i].ns;
    phases[i].count += o.phases[i].count;
  }
  return *this;
}

PhaseProfile PhaseProfile::operator-(const PhaseProfile& o) const {
  PhaseProfile out;
  for (std::size_t i = 0; i < kPhaseCount; ++i) {
    out.phases[i].ns =
        phases[i].ns >= o.phases[i].ns ? phases[i].ns - o.phases[i].ns : 0;
    out.phases[i].count = phases[i].count >= o.phases[i].count
                              ? phases[i].count - o.phases[i].count
                              : 0;
  }
  return out;
}

bool PhaseProfile::empty() const {
  for (const Entry& e : phases) {
    if (e.ns != 0 || e.count != 0) return false;
  }
  return true;
}

std::uint64_t PhaseProfile::total_ns() const {
  std::uint64_t total = 0;
  for (const Entry& e : phases) total += e.ns;
  return total;
}

double PhaseProfile::share(Phase p) const {
  const std::uint64_t total = total_ns();
  if (total == 0) return 0.0;
  return static_cast<double>(phases[static_cast<std::size_t>(p)].ns) /
         static_cast<double>(total);
}

std::string PhaseProfile::to_string() const {
  std::array<std::size_t, kPhaseCount> order{};
  for (std::size_t i = 0; i < kPhaseCount; ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [this](std::size_t a, std::size_t b) {
    return phases[a].ns > phases[b].ns;
  });
  const std::uint64_t total = total_ns();
  std::string out;
  for (std::size_t i : order) {
    const Entry& e = phases[i];
    if (e.count == 0 && e.ns == 0) continue;
    if (!out.empty()) out += "; ";
    out += phase_name(static_cast<Phase>(i));
    out += ' ';
    append_double(out,
                  total == 0 ? 0.0
                             : 100.0 * static_cast<double>(e.ns) /
                                   static_cast<double>(total),
                  1);
    out += "% (";
    append_u64(out, e.ns);
    out += " ns, ";
    append_u64(out, e.count);
    out += " calls)";
  }
  if (out.empty()) out = "(empty)";
  return out;
}

namespace detail {

thread_local WorkerTrack* tl_track = nullptr;

void WorkerTrack::push_span(Phase p, std::uint64_t start, std::uint64_t end) {
  TraceEvent ev;
  ev.kind = TraceEvent::Kind::kSpan;
  ev.phase = p;
  ev.worker = worker;
  ev.start_ns = start;
  ev.end_ns = end;
  if (spans.size() < span_cap) {
    spans.push_back(ev);
    span_next = spans.size() % span_cap;
  } else {
    spans[span_next] = ev;
    span_next = (span_next + 1) % span_cap;
    ++spans_dropped;
  }
}

void WorkerTrack::push_instant(const char* name) {
  if (span_cap == 0) return;
  const std::uint64_t now = monotonic_ns();
  TraceEvent ev;
  ev.kind = TraceEvent::Kind::kInstant;
  ev.name = name;
  ev.worker = worker;
  ev.start_ns = now;
  ev.end_ns = now;
  if (spans.size() < span_cap) {
    spans.push_back(ev);
    span_next = spans.size() % span_cap;
  } else {
    spans[span_next] = ev;
    span_next = (span_next + 1) % span_cap;
    ++spans_dropped;
  }
}

}  // namespace detail

WorkerScope::WorkerScope(Telemetry* telemetry, std::uint32_t worker)
    : telemetry_(telemetry) {
  if (telemetry_ == nullptr) return;
  prev_ = detail::tl_track;
  track_ = telemetry_->acquire_track(worker);
  detail::tl_track = track_;
}

WorkerScope::~WorkerScope() {
  if (track_ == nullptr) return;
  detail::tl_track = prev_;
  telemetry_->release_track(track_);
}

Telemetry::Telemetry() : Telemetry(Options{}) {}

Telemetry::Telemetry(Options opts)
    : opts_(opts),
      clock_(opts.clock != nullptr ? opts.clock : &util::steady_clock()),
      t0_(clock_->now_ns()),
      next_beat_(opts.sink != nullptr && opts.heartbeat_ns != 0
                     ? t0_ + opts.heartbeat_ns
                     : kNoBeat) {
  last_beat_ns_ = t0_;
}

bool Telemetry::heartbeat_due() {
  if (opts_.sink == nullptr || opts_.heartbeat_ns == 0) return false;
  std::uint64_t next = next_beat_.load(std::memory_order_relaxed);
  if (next == kNoBeat) return false;
  const std::uint64_t now = clock_->now_ns();
  if (now < next) return false;
  return next_beat_.compare_exchange_strong(next, now + opts_.heartbeat_ns,
                                            std::memory_order_relaxed);
}

void Telemetry::emit(ProgressSnapshot snap) {
  if (opts_.sink == nullptr) return;
  std::lock_guard<std::mutex> lock(mu_);
  const std::uint64_t now = clock_->now_ns();
  snap.wall_ns = now;
  snap.elapsed_ns = now - t0_;
  snap.seq = seq_++;
  const std::uint64_t dt = now - last_beat_ns_;
  if (dt > 0 && snap.states >= last_states_ &&
      snap.transitions >= last_transitions_) {
    snap.states_per_sec = static_cast<double>(snap.states - last_states_) *
                          1e9 / static_cast<double>(dt);
    snap.transitions_per_sec =
        static_cast<double>(snap.transitions - last_transitions_) * 1e9 /
        static_cast<double>(dt);
  }
  last_beat_ns_ = now;
  last_states_ = snap.states;
  last_transitions_ = snap.transitions;
  opts_.sink->on_snapshot(snap);
}

void Telemetry::finish() {
  PhaseProfile profile;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (finished_) return;
    finished_ = true;
    profile = profile_;
  }
  if (opts_.sink != nullptr) opts_.sink->on_run_end(profile);
}

PhaseProfile Telemetry::profile() const {
  std::lock_guard<std::mutex> lock(mu_);
  return profile_;
}

std::uint64_t Telemetry::heartbeats_emitted() const {
  std::lock_guard<std::mutex> lock(mu_);
  return seq_;
}

detail::WorkerTrack* Telemetry::acquire_track(std::uint32_t worker) {
  auto* track = new detail::WorkerTrack();
  track->worker = worker;
  track->span_cap = opts_.trace_capacity;
  if (track->span_cap != 0) track->spans.reserve(std::min<std::size_t>(track->span_cap, 1024));
  return track;
}

void Telemetry::release_track(detail::WorkerTrack* track) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (std::size_t i = 0; i < kPhaseCount; ++i) {
      profile_.phases[i].ns += track->ns[i];
      profile_.phases[i].count += track->count[i];
    }
    if (!track->spans.empty()) {
      if (worker_events_.size() <= track->worker) {
        worker_events_.resize(track->worker + 1);
      }
      std::vector<TraceEvent>& dst = worker_events_[track->worker];
      // The ring stores its oldest entry at span_next once it has wrapped;
      // append in chronological order.
      if (track->spans_dropped != 0) {
        dst.insert(dst.end(), track->spans.begin() + static_cast<std::ptrdiff_t>(track->span_next),
                   track->spans.end());
        dst.insert(dst.end(), track->spans.begin(),
                   track->spans.begin() + static_cast<std::ptrdiff_t>(track->span_next));
      } else {
        dst.insert(dst.end(), track->spans.begin(), track->spans.end());
      }
      // Keep only the newest trace_capacity events per worker overall.
      if (opts_.trace_capacity != 0 && dst.size() > opts_.trace_capacity) {
        dst.erase(dst.begin(),
                  dst.begin() + static_cast<std::ptrdiff_t>(dst.size() -
                                                            opts_.trace_capacity));
      }
    }
  }
  delete track;
}

void Telemetry::write_chrome_trace(std::ostream& os) const {
  struct Out {
    std::uint64_t ts;
    std::uint32_t tid;
    char ph;  // 'B', 'E', 'i'
    Phase phase;
    const char* name;
  };
  std::vector<Out> out;
  std::vector<std::uint32_t> tracks;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (std::size_t w = 0; w < worker_events_.size(); ++w) {
      const std::vector<TraceEvent>& events = worker_events_[w];
      if (events.empty()) continue;
      tracks.push_back(static_cast<std::uint32_t>(w));
      std::vector<TraceEvent> spans;
      spans.reserve(events.size());
      for (const TraceEvent& ev : events) {
        if (ev.kind == TraceEvent::Kind::kSpan) {
          spans.push_back(ev);
        } else {
          out.push_back(Out{ev.start_ns, static_cast<std::uint32_t>(w), 'i',
                            Phase::kEnumerate, ev.name});
        }
      }
      // Spans from one worker are properly nested (ScopedPhase is a stack).
      // Sort into preorder, then emit a correctly ordered B/E sequence via a
      // stack simulation; a later global stable_sort by ts preserves this
      // per-tid order for equal timestamps.
      std::sort(spans.begin(), spans.end(),
                [](const TraceEvent& a, const TraceEvent& b) {
                  if (a.start_ns != b.start_ns) return a.start_ns < b.start_ns;
                  return a.end_ns > b.end_ns;
                });
      std::vector<const TraceEvent*> open;
      for (const TraceEvent& sp : spans) {
        while (!open.empty() && open.back()->end_ns <= sp.start_ns) {
          out.push_back(Out{open.back()->end_ns, static_cast<std::uint32_t>(w),
                            'E', open.back()->phase, nullptr});
          open.pop_back();
        }
        out.push_back(Out{sp.start_ns, static_cast<std::uint32_t>(w), 'B',
                          sp.phase, nullptr});
        open.push_back(&sp);
      }
      while (!open.empty()) {
        out.push_back(Out{open.back()->end_ns, static_cast<std::uint32_t>(w),
                          'E', open.back()->phase, nullptr});
        open.pop_back();
      }
    }
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const Out& a, const Out& b) { return a.ts < b.ts; });

  std::uint64_t base = t0_;
  for (const Out& ev : out) base = std::min(base, ev.ts);

  std::string buf;
  buf += "[\n";
  bool first = true;
  for (std::uint32_t w : tracks) {
    if (!first) buf += ",\n";
    first = false;
    buf += "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":";
    append_u64(buf, w);
    buf += ",\"args\":{\"name\":\"worker ";
    append_u64(buf, w);
    buf += "\"}}";
  }
  for (const Out& ev : out) {
    if (!first) buf += ",\n";
    first = false;
    buf += "{\"name\":\"";
    buf += ev.ph == 'i' ? (ev.name != nullptr ? ev.name : "instant")
                        : phase_name(ev.phase);
    buf += "\",\"cat\":\"";
    buf += ev.ph == 'i' ? "event" : "phase";
    buf += "\",\"ph\":\"";
    buf += ev.ph;
    buf += "\",\"ts\":";
    append_double(buf, static_cast<double>(ev.ts - base) / 1000.0, 3);
    buf += ",\"pid\":1,\"tid\":";
    append_u64(buf, ev.tid);
    if (ev.ph == 'i') buf += ",\"s\":\"t\"";
    buf += "}";
  }
  buf += "\n]\n";
  os << buf;
}

void NdjsonSink::on_snapshot(const ProgressSnapshot& snap) {
  std::string buf;
  buf += "{\"type\":\"progress\",\"seq\":";
  append_u64(buf, snap.seq);
  buf += ",\"wall_ns\":";
  append_u64(buf, snap.wall_ns);
  buf += ",\"elapsed_ms\":";
  append_double(buf, static_cast<double>(snap.elapsed_ns) / 1e6, 3);
  buf += ",\"states\":";
  append_u64(buf, snap.states);
  buf += ",\"transitions\":";
  append_u64(buf, snap.transitions);
  buf += ",\"finals\":";
  append_u64(buf, snap.finals);
  buf += ",\"max_depth\":";
  append_u64(buf, snap.max_depth);
  buf += ",\"frontier\":";
  append_u64(buf, snap.frontier);
  buf += ",\"seen_bytes\":";
  append_u64(buf, snap.seen_bytes);
  buf += ",\"sleep_blocked\":";
  append_u64(buf, snap.sleep_blocked);
  buf += ",\"redundant\":";
  append_u64(buf, snap.redundant);
  buf += ",\"states_per_sec\":";
  append_double(buf, snap.states_per_sec, 1);
  buf += ",\"transitions_per_sec\":";
  append_double(buf, snap.transitions_per_sec, 1);
  buf += ",\"workers\":[";
  for (std::size_t i = 0; i < snap.workers.size(); ++i) {
    const ProgressSnapshot::WorkerCounters& wc = snap.workers[i];
    if (i != 0) buf += ',';
    buf += "{\"processed\":";
    append_u64(buf, wc.processed);
    buf += ",\"enqueued\":";
    append_u64(buf, wc.enqueued);
    buf += ",\"steals\":";
    append_u64(buf, wc.steals);
    buf += ",\"merged\":";
    append_u64(buf, wc.merged);
    buf += "}";
  }
  buf += "]}\n";
  os_ << buf;
  os_.flush();
}

void NdjsonSink::on_run_end(const PhaseProfile& profile) {
  std::string buf;
  buf += "{\"type\":\"phase_profile\",\"total_ns\":";
  append_u64(buf, profile.total_ns());
  buf += ",\"phases\":{";
  for (std::size_t i = 0; i < kPhaseCount; ++i) {
    const PhaseProfile::Entry& e = profile.phases[i];
    if (i != 0) buf += ',';
    buf += "\"";
    buf += phase_name(static_cast<Phase>(i));
    buf += "\":{\"ns\":";
    append_u64(buf, e.ns);
    buf += ",\"count\":";
    append_u64(buf, e.count);
    buf += ",\"share\":";
    append_double(buf, profile.share(static_cast<Phase>(i)), 4);
    buf += "}";
  }
  buf += "}}\n";
  os_ << buf;
  os_.flush();
}

void TtySink::on_snapshot(const ProgressSnapshot& snap) {
  std::string buf;
  buf += "[hb ";
  append_u64(buf, snap.seq);
  buf += "] ";
  append_double(buf, static_cast<double>(snap.elapsed_ns) / 1e9, 1);
  buf += "s | ";
  append_u64(buf, snap.states);
  buf += " states (";
  append_double(buf, snap.states_per_sec / 1000.0, 1);
  buf += "k/s) | ";
  append_u64(buf, snap.transitions);
  buf += " trans | depth ";
  append_u64(buf, snap.max_depth);
  buf += " | frontier ";
  append_u64(buf, snap.frontier);
  buf += " | seen ";
  buf += human_bytes(snap.seen_bytes);
  if (!snap.workers.empty()) {
    std::size_t steals = 0;
    for (const ProgressSnapshot::WorkerCounters& wc : snap.workers) {
      steals += wc.steals;
    }
    buf += " | ";
    append_u64(buf, snap.workers.size());
    buf += "w/";
    append_u64(buf, steals);
    buf += " steals";
  }
  buf += '\n';
  os_ << buf;
  os_.flush();
}

void TtySink::on_run_end(const PhaseProfile& profile) {
  if (profile.empty()) return;
  os_ << "[phase profile] " << profile.to_string() << "\n";
  os_.flush();
}

}  // namespace rc11::obs
