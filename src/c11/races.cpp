#include "c11/races.hpp"

#include "util/fmt.hpp"

namespace rc11::c11 {

std::string DataRace::to_string(const Execution& ex,
                                const VarTable* vars) const {
  return util::cat("data race between ",
                   c11::to_string(ex.event(first), vars), " and ",
                   c11::to_string(ex.event(second), vars));
}

bool conflicting(const Execution& ex, EventId a, EventId b) {
  if (a == b) return false;
  const Event& ea = ex.event(a);
  const Event& eb = ex.event(b);
  // A fence has no location (its var field is a placeholder 0).
  if (ea.action.is_fence() || eb.action.is_fence()) return false;
  if (ea.var() != eb.var()) return false;
  return ea.is_write() || eb.is_write();
}

namespace {

bool races(const Execution& ex, const util::Relation& hb, EventId a,
           EventId b) {
  if (!conflicting(ex, a, b)) return false;
  // cnf \ (A x A): at least one side non-atomic.
  if (!ex.event(a).action.is_nonatomic() &&
      !ex.event(b).action.is_nonatomic()) {
    return false;
  }
  // \ thd: different threads.
  if (ex.event(a).tid == ex.event(b).tid) return false;
  // \ (hb u hb^-1): unordered by happens-before.
  return !hb.contains(a, b) && !hb.contains(b, a);
}

}  // namespace

std::optional<DataRace> find_race(const Execution& ex,
                                  const DerivedRelations& d) {
  const std::size_t n = ex.size();
  for (EventId a = 0; a < n; ++a) {
    for (EventId b = a + 1; b < n; ++b) {
      if (races(ex, d.hb, a, b)) return DataRace{a, b};
    }
  }
  return std::nullopt;
}

std::optional<DataRace> find_race(const Execution& ex) {
  return find_race(ex, compute_derived(ex));
}

std::optional<DataRace> race_with(const Execution& ex,
                                  const util::Relation& hb, EventId e) {
  for (EventId a = 0; a < ex.size(); ++a) {
    if (a == e) continue;
    if (races(ex, hb, a, e)) return DataRace{a, e};
  }
  return std::nullopt;
}

std::optional<DataRace> race_with(const Execution& ex,
                                  const DerivedRelations& d, EventId e) {
  return race_with(ex, d.hb, e);
}

}  // namespace rc11::c11
