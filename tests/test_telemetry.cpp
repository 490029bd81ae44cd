// Tests for the observability subsystem (src/obs): heartbeat cadence
// under an injected ManualClock, NDJSON sink schema, phase-profile
// accounting through WorkerScope/ScopedPhase, the Chrome trace-event
// exporter's structural validity, and the zero-overhead contract that
// keeps telemetry-off exploration untouched.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "lang/parser.hpp"
#include "litmus/catalog.hpp"
#include "mc/checker.hpp"
#include "obs/telemetry.hpp"
#include "util/clock.hpp"

namespace rc11::obs {
namespace {

// Sink that records everything it is handed.
struct CollectingSink final : TelemetrySink {
  std::vector<ProgressSnapshot> snapshots;
  std::vector<PhaseProfile> run_ends;
  void on_snapshot(const ProgressSnapshot& snap) override {
    snapshots.push_back(snap);
  }
  void on_run_end(const PhaseProfile& profile) override {
    run_ends.push_back(profile);
  }
};

// --- Heartbeat cadence ---------------------------------------------------------

TEST(Heartbeat, ManualClockDrivesExactCadence) {
  util::ManualClock clock(1'000'000);
  CollectingSink sink;
  Telemetry::Options opts;
  opts.sink = &sink;
  opts.heartbeat_ns = 1000;
  opts.clock = &clock;
  Telemetry tel(opts);

  // Before the first deadline: never due.
  EXPECT_FALSE(tel.heartbeat_due());
  clock.advance_ns(999);
  EXPECT_FALSE(tel.heartbeat_due());

  // At the deadline: due exactly once.
  clock.advance_ns(1);
  EXPECT_TRUE(tel.heartbeat_due());
  EXPECT_FALSE(tel.heartbeat_due());

  // A long stall collapses the missed intervals into one beat (the
  // deadline rearms at now + interval, not deadline + interval).
  clock.advance_ns(10'000);
  EXPECT_TRUE(tel.heartbeat_due());
  EXPECT_FALSE(tel.heartbeat_due());

  ProgressSnapshot snap;
  snap.states = 10;
  tel.emit(snap);
  tel.emit(snap);
  EXPECT_EQ(tel.heartbeats_emitted(), 2u);
  ASSERT_EQ(sink.snapshots.size(), 2u);
  EXPECT_EQ(sink.snapshots[0].seq, 0u);
  EXPECT_EQ(sink.snapshots[1].seq, 1u);
}

TEST(Heartbeat, DisabledWithoutSinkOrInterval) {
  util::ManualClock clock(0);
  {
    Telemetry::Options opts;  // no sink
    opts.heartbeat_ns = 1000;
    opts.clock = &clock;
    Telemetry tel(opts);
    clock.advance_ns(1'000'000);
    EXPECT_FALSE(tel.heartbeat_due());
  }
  {
    CollectingSink sink;
    Telemetry::Options opts;
    opts.sink = &sink;  // sink but no interval
    opts.clock = &clock;
    Telemetry tel(opts);
    clock.advance_ns(1'000'000);
    EXPECT_FALSE(tel.heartbeat_due());
  }
}

TEST(Heartbeat, EmitFillsWindowRatesFromInjectedClock) {
  util::ManualClock clock(0);
  CollectingSink sink;
  Telemetry::Options opts;
  opts.sink = &sink;
  opts.heartbeat_ns = 1'000'000;
  opts.clock = &clock;
  Telemetry tel(opts);

  clock.advance_ns(2'000'000);  // 2 ms window since t0
  ProgressSnapshot snap;
  snap.states = 42;
  snap.transitions = 84;
  tel.emit(snap);
  ASSERT_EQ(sink.snapshots.size(), 1u);
  EXPECT_EQ(sink.snapshots[0].elapsed_ns, 2'000'000u);
  EXPECT_DOUBLE_EQ(sink.snapshots[0].states_per_sec, 21'000.0);
  EXPECT_DOUBLE_EQ(sink.snapshots[0].transitions_per_sec, 42'000.0);

  // A counter moving backwards (a new exploration reusing the context)
  // resets the window rate to 0 instead of reporting garbage.
  clock.advance_ns(1'000'000);
  ProgressSnapshot fresh;
  fresh.states = 5;
  tel.emit(fresh);
  ASSERT_EQ(sink.snapshots.size(), 2u);
  EXPECT_DOUBLE_EQ(sink.snapshots[1].states_per_sec, 0.0);
}

// --- NDJSON sink schema --------------------------------------------------------

TEST(NdjsonSink, ProgressAndProfileSchema) {
  std::ostringstream os;
  NdjsonSink ndjson(os);
  util::ManualClock clock(0);
  Telemetry::Options opts;
  opts.sink = &ndjson;
  opts.heartbeat_ns = 1'000'000;
  opts.clock = &clock;
  Telemetry tel(opts);

  clock.advance_ns(2'000'000);
  ProgressSnapshot snap;
  snap.states = 42;
  snap.transitions = 84;
  snap.finals = 3;
  snap.max_depth = 9;
  snap.frontier = 4;
  snap.seen_bytes = 1024;
  snap.sleep_blocked = 1;
  snap.redundant = 2;
  snap.workers.push_back({/*processed=*/10, /*enqueued=*/11,
                          /*steals=*/7, /*merged=*/5});
  tel.emit(snap);
  tel.finish();

  std::istringstream lines(os.str());
  std::string progress, profile, extra;
  ASSERT_TRUE(std::getline(lines, progress));
  ASSERT_TRUE(std::getline(lines, profile));
  EXPECT_FALSE(std::getline(lines, extra)) << extra;

  for (const char* fragment :
       {R"("type":"progress")", R"("seq":0)", R"("elapsed_ms":2.000)",
        R"("states":42)", R"("transitions":84)", R"("finals":3)",
        R"("max_depth":9)", R"("frontier":4)", R"("seen_bytes":1024)",
        R"("sleep_blocked":1)", R"("redundant":2)",
        R"("states_per_sec":21000.0)",
        R"("workers":[{"processed":10,"enqueued":11,"steals":7,"merged":5}])"}) {
    EXPECT_NE(progress.find(fragment), std::string::npos)
        << fragment << " missing from: " << progress;
  }
  EXPECT_EQ(progress.front(), '{');
  EXPECT_EQ(progress.back(), '}');

  EXPECT_NE(profile.find(R"("type":"phase_profile")"), std::string::npos);
  // Every phase of the taxonomy appears, even with zero ticks.
  for (std::size_t i = 0; i < kPhaseCount; ++i) {
    const std::string key =
        std::string("\"") + phase_name(static_cast<Phase>(i)) + "\":{\"ns\":";
    EXPECT_NE(profile.find(key), std::string::npos)
        << key << " missing from: " << profile;
  }
}

// --- Phase profile accounting --------------------------------------------------

TEST(PhaseProfile, WorkerScopeMergesScopedPhases) {
  Telemetry tel;
  {
    WorkerScope scope(&tel, 0);
    // profile() only reflects *detached* scopes.
    {
      ScopedPhase apply(Phase::kApply);
      ScopedPhase nested(Phase::kPushEvent);
    }
    { ScopedPhase fp(Phase::kFingerprint); }
    EXPECT_TRUE(tel.profile().empty());
  }
  const PhaseProfile p = tel.profile();
  EXPECT_FALSE(p.empty());
  EXPECT_EQ(p[Phase::kApply].count, 1u);
  EXPECT_EQ(p[Phase::kPushEvent].count, 1u);
  EXPECT_EQ(p[Phase::kFingerprint].count, 1u);
  EXPECT_EQ(p[Phase::kUndo].count, 0u);

  // Exclusive (flat) accounting: shares sum to <= 1.
  double total_share = 0.0;
  for (std::size_t i = 0; i < kPhaseCount; ++i) {
    total_share += p.share(static_cast<Phase>(i));
  }
  EXPECT_LE(total_share, 1.0 + 1e-9);
}

TEST(PhaseProfile, ArithmeticAndToString) {
  PhaseProfile a;
  a.phases[static_cast<std::size_t>(Phase::kApply)] = {600, 3};
  a.phases[static_cast<std::size_t>(Phase::kUndo)] = {400, 2};
  PhaseProfile b = a;
  b += a;
  EXPECT_EQ(b[Phase::kApply].ns, 1200u);
  EXPECT_EQ(b[Phase::kApply].count, 6u);
  const PhaseProfile d = b - a;
  EXPECT_EQ(d[Phase::kApply].ns, 600u);
  EXPECT_EQ(d[Phase::kUndo].count, 2u);
  EXPECT_DOUBLE_EQ(a.share(Phase::kApply), 0.6);
  EXPECT_EQ(a.total_ns(), 1000u);
  const std::string s = a.to_string();
  // Sorted by descending time: apply before undo.
  EXPECT_LT(s.find("apply 60.0%"), s.find("undo 40.0%"));
}

// --- End-to-end through the explorer -------------------------------------------

TEST(Telemetry, ExplorerAttachesPhaseProfile) {
  const auto parsed =
      lang::parse_litmus(litmus::find_test("SB").source);
  for (mc::PorMode por : {mc::PorMode::kNone, mc::kDefaultPor}) {
    Telemetry tel;
    mc::ExploreOptions opts;
    opts.por = por;
    opts.telemetry = &tel;
    const mc::ExploreResult r = mc::explore(parsed.program, opts, {});
    EXPECT_FALSE(r.phases.empty());
    EXPECT_GT(r.phases[Phase::kApply].count, 0u);
    EXPECT_GT(r.phases[Phase::kEnumerate].count, 0u);
    // The engine-attached profile is the run's slice of the shared
    // context (profile-base subtraction), so counts never exceed it.
    const PhaseProfile total = tel.profile();
    EXPECT_LE(r.phases[Phase::kApply].count, total[Phase::kApply].count);
  }
}

TEST(Telemetry, MergedTransitionsPushNoEvent) {
  // The deduplicating explorer fingerprints a successor before its push
  // and pushes only for a new state or a sleep-set revisit, so on a
  // merge-heavy program the push_event count sits far below the memory
  // transitions. conflict4 (verdictbench's shape: four threads on one
  // variable) has no SC access, so enumeration's Sc filter pushes nothing
  // either; every counted push enters a state the search keeps.
  const auto parsed = lang::parse_litmus(R"(litmus conflict4
var x = 0
thread 1 { x := 1; a := x; }
thread 2 { x := 2; a := x; }
thread 3 { x := 3; a := x; }
thread 4 { a := x; b := x; }
forbidden (4:a == 2 && 4:b == 0)
)");
  const struct {
    mc::PorMode por;
    std::size_t states, transitions, merged, pushes;
  } cases[] = {
      {mc::PorMode::kNone, 41'346, 148'772, 107'427, 18'105},
      {mc::PorMode::kSleepSets, 41'346, 120'092, 55'138, 35'980},
  };
  for (const auto& c : cases) {
    Telemetry tel;
    mc::ExploreOptions opts;
    opts.por = c.por;
    opts.telemetry = &tel;
    const mc::ExploreResult r = mc::explore(parsed.program, opts, {});
    const char* mode = mc::por_mode_name(c.por);
    EXPECT_FALSE(r.stats.truncated) << mode;
    EXPECT_EQ(r.stats.states, c.states) << mode;
    EXPECT_EQ(r.stats.transitions, c.transitions) << mode;
    EXPECT_EQ(r.stats.merged, c.merged) << mode;
    EXPECT_EQ(r.phases[Phase::kPushEvent].count, c.pushes) << mode;
  }
}

TEST(Telemetry, ZeroOverheadContractWhenOff) {
  // No telemetry: the result profile stays empty and no thread-local
  // track is bound (ScopedPhase outside any WorkerScope is a no-op).
  EXPECT_EQ(detail::tl_track, nullptr);
  { ScopedPhase untracked(Phase::kApply); }
  instant_event("untracked");
  EXPECT_EQ(detail::tl_track, nullptr);

  const auto parsed =
      lang::parse_litmus(litmus::find_test("SB").source);
  const mc::ExploreResult r = mc::explore(parsed.program, {}, {});
  EXPECT_TRUE(r.phases.empty());
  EXPECT_EQ(detail::tl_track, nullptr);
}

// --- Chrome trace exporter -----------------------------------------------------

// Pulls the integer value following `"key":` out of a JSON-ish line.
std::int64_t extract_int(const std::string& line, const std::string& key) {
  const auto pos = line.find("\"" + key + "\":");
  EXPECT_NE(pos, std::string::npos) << key << " in " << line;
  return std::strtoll(line.c_str() + pos + key.size() + 3, nullptr, 10);
}

double extract_double(const std::string& line, const std::string& key) {
  const auto pos = line.find("\"" + key + "\":");
  EXPECT_NE(pos, std::string::npos) << key << " in " << line;
  return std::strtod(line.c_str() + pos + key.size() + 3, nullptr);
}

TEST(ChromeTrace, StructurallyValidTimeline) {
  const auto parsed =
      lang::parse_litmus(litmus::find_test("IRIW_ra").source);
  Telemetry::Options topts;
  topts.trace_capacity = 1 << 12;
  Telemetry tel(topts);
  mc::ExploreOptions opts;
  opts.por = mc::kDefaultPor;
  opts.telemetry = &tel;
  (void)mc::explore(parsed.program, opts, {});

  std::ostringstream os;
  tel.write_chrome_trace(os);
  const std::string trace = os.str();
  ASSERT_EQ(trace.front(), '[');

  // One event object per line between the brackets.
  std::istringstream lines(trace);
  std::string line;
  ASSERT_TRUE(std::getline(lines, line));
  EXPECT_EQ(line, "[");
  bool saw_metadata = false;
  double last_ts = 0.0;
  std::map<std::int64_t, int> depth;
  std::size_t events = 0;
  while (std::getline(lines, line) && line != "]") {
    if (line.back() == ',') line.pop_back();
    ++events;
    const auto ph_pos = line.find("\"ph\":\"");
    ASSERT_NE(ph_pos, std::string::npos) << line;
    const char ph = line[ph_pos + 6];
    if (ph == 'M') {
      saw_metadata = true;
      EXPECT_NE(line.find("thread_name"), std::string::npos);
      continue;
    }
    const std::int64_t tid = extract_int(line, "tid");
    const double ts = extract_double(line, "ts");
    EXPECT_GE(ts, last_ts) << "timestamps must be sorted: " << line;
    last_ts = ts;
    if (ph == 'B') {
      ++depth[tid];
    } else if (ph == 'E') {
      --depth[tid];
      EXPECT_GE(depth[tid], 0) << "unmatched E on tid " << tid;
    } else {
      EXPECT_EQ(ph, 'i') << line;
      EXPECT_NE(line.find("\"s\":\"t\""), std::string::npos) << line;
    }
  }
  EXPECT_GT(events, 0u);
  EXPECT_TRUE(saw_metadata);
  for (const auto& [tid, d] : depth) {
    EXPECT_EQ(d, 0) << "unbalanced spans on tid " << tid;
  }
}

TEST(ChromeTrace, RingBufferCapsEventCount) {
  // A tiny per-worker ring keeps only the newest spans; the trace still
  // closes every span it opens.
  const auto parsed =
      lang::parse_litmus(litmus::find_test("IRIW_ra").source);
  Telemetry::Options topts;
  topts.trace_capacity = 8;
  Telemetry tel(topts);
  mc::ExploreOptions opts;
  opts.telemetry = &tel;
  (void)mc::explore(parsed.program, opts, {});

  std::ostringstream os;
  tel.write_chrome_trace(os);
  const std::string trace = os.str();
  std::size_t begins = 0, ends = 0, pos = 0;
  while ((pos = trace.find("\"ph\":\"B\"", pos)) != std::string::npos) {
    ++begins;
    pos += 8;
  }
  pos = 0;
  while ((pos = trace.find("\"ph\":\"E\"", pos)) != std::string::npos) {
    ++ends;
    pos += 8;
  }
  EXPECT_EQ(begins, ends);
  EXPECT_LE(begins, 8u);
  EXPECT_GT(begins, 0u);
}

}  // namespace
}  // namespace rc11::obs
