#include "vcgen/assertions.hpp"

namespace rc11::vcgen {

util::Bitset hb_cone(const Execution& ex, const DerivedRelations& d,
                     ThreadId t) {
  const std::size_t n = ex.size();
  util::Bitset cone = ex.init_writes();
  const util::Bitset thread_events = ex.events_of(t);
  const util::Relation hb_opt = d.hb.reflexive_closure();
  for (EventId e = 0; e < n; ++e) {
    if (!hb_opt.row(e).disjoint(thread_events)) cone.set(e);
  }
  return cone;
}

namespace {

/// e in hbc(t): an init write, an event of t, or hb-before an event of t.
bool in_hb_cone(const Execution& ex, const util::Relation& hb, ThreadId t,
                EventId e) {
  const c11::Event& ev = ex.event(e);
  if (ev.is_init() || ev.tid == t) return true;
  const util::Bitset& after = hb.row(e);
  for (std::size_t s = after.first(); s < after.size(); s = after.next(s)) {
    if (ex.event(static_cast<EventId>(s)).tid == t) return true;
  }
  return false;
}

}  // namespace

bool determinate_value(const Execution& ex, const util::Relation& hb,
                       ThreadId t, VarId x, Value v) {
  const EventId last = ex.last(x);
  if (last == c11::kNoEvent) return false;
  if (ex.event(last).wrval() != v) return false;  // condition (1)
  return in_hb_cone(ex, hb, t, last);             // condition (2)
}

bool determinate_value(const Execution& ex, const DerivedRelations& d,
                       ThreadId t, VarId x, Value v) {
  return determinate_value(ex, d.hb, t, x, v);
}

std::optional<Value> determinate_value_of(const Execution& ex,
                                          const DerivedRelations& d,
                                          ThreadId t, VarId x) {
  const EventId last = ex.last(x);
  if (last == c11::kNoEvent) return std::nullopt;
  const Value v = ex.event(last).wrval();
  if (determinate_value(ex, d, t, x, v)) return v;
  return std::nullopt;
}

bool observes_only_last(const Execution& ex, const DerivedRelations& d,
                        ThreadId t, VarId x) {
  const EventId last = ex.last(x);
  if (last == c11::kNoEvent) return false;
  const util::Bitset ow = c11::observable_writes(ex, d, t);
  bool only_last = true;
  ow.for_each([&](std::size_t w) {
    if (ex.event(static_cast<EventId>(w)).var() == x &&
        static_cast<EventId>(w) != last) {
      only_last = false;
    }
  });
  return only_last && ow.test(last);
}

bool var_order(const Execution& ex, const util::Relation& hb, VarId x,
               VarId y) {
  const EventId lx = ex.last(x);
  const EventId ly = ex.last(y);
  if (lx == c11::kNoEvent || ly == c11::kNoEvent) return false;
  return hb.contains(lx, ly);
}

bool var_order(const Execution& ex, const DerivedRelations& d, VarId x,
               VarId y) {
  return var_order(ex, d.hb, x, y);
}

bool determinate_value(const Execution& ex, ThreadId t, VarId x, Value v) {
  return determinate_value(ex, c11::compute_derived(ex), t, x, v);
}

bool var_order(const Execution& ex, VarId x, VarId y) {
  return var_order(ex, c11::compute_derived(ex), x, y);
}

}  // namespace rc11::vcgen
