// The layer ladder: measures the interp, c11, util and state-space layers
// from outside, through their public functions, on one subject's program.
#pragma once

#include <cstddef>
#include <cstdint>

#include "spans.hpp"
#include "suite.hpp"

namespace vbench {

/// Walks seeded random descents through interp::enumerate_steps /
/// apply_step / undo_step until `nodes` configurations have been visited
/// (a descent that reaches a configuration without steps undoes back to
/// the root). At every node it times a Config copy, Config::fingerprint,
/// SeenSet::insert, compute_derived, check_sc, race_with on the newest
/// event and successors; after each descent it replays the descent's
/// events into a fresh Execution with push_event and pops them again.
/// Every timed call is one span named after the function, under a span
/// for the subject.
void run_ladder(const Subject& subject, std::uint64_t seed, std::size_t nodes,
                SpanLog& log);

}  // namespace vbench
