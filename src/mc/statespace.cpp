#include "mc/statespace.hpp"

#include <sstream>
#include <stdexcept>

namespace rc11::mc {

std::string ExploreStats::to_string() const {
  std::ostringstream os;
  os << "states=" << states << " transitions=" << transitions
     << " merged=" << merged << " finals=" << finals
     << " max_depth=" << max_depth
     << " peak_seen_bytes=" << peak_seen_bytes;
  if (por_pruned > 0) os << " por_pruned=" << por_pruned;
  if (backtracks > 0) os << " backtracks=" << backtracks;
  if (sleep_blocked > 0) os << " sleep_blocked=" << sleep_blocked;
  if (complete_traces > 0) os << " complete_traces=" << complete_traces;
  if (redundant_transitions > 0) {
    os << " redundant_transitions=" << redundant_transitions;
  }
  if (truncated) os << " (TRUNCATED)";
  return os.str();
}

std::string WorkerStats::to_string() const {
  std::ostringstream os;
  os << "processed=" << processed << " enqueued=" << enqueued
     << " steals=" << steals << " merged=" << merged;
  return os.str();
}

InsertResult SeenSet::insert(const util::Fingerprint& fp, StateId parent,
                             std::uint32_t step) {
  // Grow at 50% load so probe chains stay short.
  if ((records_.size() + 1) * 2 > slots_.size()) rehash(slots_.size() * 2);

  std::size_t i = fp.slot_bits() & mask_;
  while (slots_[i] != 0) {
    const StateId existing = slots_[i] - 1;
    if (records_[existing].fp == fp) return {existing, false};
    i = (i + 1) & mask_;
  }
  // Fail loudly rather than handing out ids the 32-bit slots cannot hold
  // (which would corrupt parent chains).
  if (records_.size() >= kMaxRecords) {
    throw std::length_error("SeenSet: StateId space exhausted");
  }
  const StateId id = records_.push(StateRecord{fp, parent, step});
  slots_[i] = static_cast<std::uint32_t>(id + 1);
  return {id, true};
}

void SeenSet::rehash(std::size_t new_slot_count) {
  slots_.assign(new_slot_count, 0);
  mask_ = new_slot_count - 1;
  for (StateId id = 0; id < records_.size(); ++id) {
    std::size_t i = records_[id].fp.slot_bits() & mask_;
    while (slots_[i] != 0) i = (i + 1) & mask_;
    slots_[i] = static_cast<std::uint32_t>(id + 1);
  }
}

}  // namespace rc11::mc
