// Per-worker exploration cursor, shared by the two work-stealing engines
// (parallel.cpp's explorer and dpor.cpp's source-set DPOR).
//
// A cursor is one Config stepped in place, with one undo record per level
// of the path it stands on. A worker moves between work items by undoing
// back to the prefix the two paths share and applying the rest, so a
// handoff between items (a steal included) copies no configuration. Each
// engine keeps its own per-level key to find the shared prefix: step
// indices in parallel.cpp, tree-node identity in dpor.cpp.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "interp/config.hpp"
#include "obs/telemetry.hpp"

namespace rc11::mc {

class Cursor {
 public:
  explicit Cursor(interp::Config start) : config_(std::move(start)) {}

  /// The configuration the cursor stands on. Mutable so a caller can hand
  /// it to an API that takes a Config by reference or by move, provided it
  /// puts the same configuration back.
  [[nodiscard]] interp::Config& config() { return config_; }

  /// Steps applied on top of the start configuration.
  [[nodiscard]] std::size_t depth() const { return depth_; }

  /// Undoes the newest steps until `depth` remain (timed as kUndo).
  void undo_to(std::size_t depth) {
    if (depth_ <= depth) return;
    obs::ScopedPhase undo_phase(obs::Phase::kUndo);
    while (depth_ > depth) interp::undo_step(config_, undos_[--depth_]);
  }

  /// Applies one step on top (timed as kApply). `step` must have been
  /// enumerated on a configuration equal to the current one.
  void apply(const interp::Step& step, const interp::StepOptions& opts) {
    // Undo records stay allocated per level: a replay reuses their buffers.
    if (undos_.size() == depth_) undos_.emplace_back();
    obs::ScopedPhase apply_phase(obs::Phase::kApply);
    (void)interp::apply_step(config_, step, opts, undos_[depth_]);
    ++depth_;
  }

 private:
  interp::Config config_;
  std::vector<interp::StepUndo> undos_;  ///< undos_[k] undoes level k + 1
  std::size_t depth_ = 0;
};

}  // namespace rc11::mc
