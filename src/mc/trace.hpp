// Counterexample / witness traces produced by the explorer.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "c11/action.hpp"
#include "interp/config.hpp"

namespace rc11::mc {

struct TraceEntry {
  c11::ThreadId thread = 0;
  bool silent = true;
  c11::Action action;  ///< meaningful when !silent
  std::string note;    ///< e.g. "loop unfold", "observed e3"
};

struct Trace {
  std::vector<TraceEntry> entries;
  /// The step options the trace was recorded at: its granularity, which
  /// says which silent steps each entry's step fused after it, and its
  /// loop bound, which says which unfoldings those drains fused and which
  /// the search bounded out. Every explorer sets them where it builds the
  /// trace; replay_trace replays with the same options.
  interp::StepOptions step;

  [[nodiscard]] bool empty() const { return entries.empty(); }
  [[nodiscard]] std::size_t size() const { return entries.size(); }

  /// One line per entry: "t2: wrR(f, 1) (observed e0)".
  [[nodiscard]] std::string to_string(
      const c11::VarTable* vars = nullptr) const;
};

/// Builds a trace entry from an interpreted step.
[[nodiscard]] TraceEntry make_entry(const interp::ConfigStep& step);

/// Same rendering for the incremental engine's signature-only steps (the
/// two produce identical entries for the same transition, so traces replay
/// across both paths).
[[nodiscard]] TraceEntry make_entry(const interp::Step& step);

/// Replays a trace from the program's initial configuration by matching
/// each entry against the enumerated successors (thread, silence, action
/// and note identify a transition uniquely), with the step options the
/// trace records (Trace::step), so every drain fuses exactly what the
/// search's drain fused. Returns the configuration the trace leads to, or
/// nullopt if some entry matches no real transition — the determinism
/// check behind the counterexample-replay regression tests and the
/// parallel race reports.
[[nodiscard]] std::optional<interp::Config> replay_trace(
    const lang::Program& program, const Trace& trace);

}  // namespace rc11::mc
