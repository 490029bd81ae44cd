#include "ladder.hpp"

#include <optional>
#include <random>
#include <vector>

namespace vbench {

using namespace rc11;

namespace {

/// Makes a result observable so the timed call cannot be optimised away.
template <class T>
void keep(const T& value) {
  __asm__ __volatile__("" : : "r"(&value) : "memory");
}

/// One span around the enclosing scope.
class Timed {
 public:
  Timed(SpanLog& log, const char* name) : log_(log), id_(log.open(name, "ladder")) {}
  ~Timed() { log_.close(id_); }
  Timed(const Timed&) = delete;
  Timed& operator=(const Timed&) = delete;

 private:
  SpanLog& log_;
  std::int64_t id_;
};

struct PushedEvent {
  c11::ThreadId thread = 0;
  c11::Action action;
  c11::EventId observed = c11::kNoEvent;
};

void replay(const Subject& s, const std::vector<PushedEvent>& events,
            SpanLog& log) {
  c11::Execution ex = c11::Execution::initial(s.program.initial_values());
  ex.ensure_cache();
  std::vector<c11::Execution::UndoToken> tokens(events.size());
  for (std::size_t i = 0; i < events.size(); ++i) {
    const PushedEvent& e = events[i];
    Timed t(log, "c11.push_event");
    ex.push_event(e.thread, e.action, e.observed, tokens[i]);
  }
  for (std::size_t i = events.size(); i-- > 0;) {
    Timed t(log, "c11.pop_event");
    ex.pop_event(tokens[i]);
  }
}

}  // namespace

void run_ladder(const Subject& s, std::uint64_t seed, std::size_t nodes,
                SpanLog& log) {
  std::mt19937_64 rng(seed);
  interp::StepOptions opts;
  opts.loop_bound = s.loop_bound;
  const std::int64_t root = log.open("ladder " + s.name, "ladder-subject");
  interp::Config c = interp::initial_config(s.program);
  const std::size_t initial_events = c.exec.size();
  mc::SeenSet seen;
  std::vector<interp::Step> steps;
  std::vector<interp::StepUndo> undo;
  std::vector<PushedEvent> events;
  std::size_t depth = 0;
  const auto unwind = [&] {
    while (depth > 0) {
      --depth;
      Timed t(log, "interp.undo");
      interp::undo_step(c, undo[depth]);
    }
    replay(s, events, log);
    events.clear();
  };

  for (std::size_t n = 0; n < nodes; ++n) {
    {
      Timed t(log, "interp.enumerate");
      interp::enumerate_steps(c, opts, steps);
    }
    std::optional<interp::Config> copy;
    {
      Timed t(log, "interp.copy");
      copy.emplace(c);
    }
    keep(copy);
    util::Fingerprint fp;
    {
      Timed t(log, "util.fingerprint");
      fp = c.fingerprint();
    }
    mc::InsertResult inserted;
    {
      Timed t(log, "mc.seen_insert");
      inserted = seen.insert(fp);
    }
    keep(inserted);
    c11::DerivedRelations derived;
    {
      Timed t(log, "c11.compute_derived");
      derived = c11::compute_derived(c.exec);
    }
    bool sc = false;
    {
      Timed t(log, "c11.check_sc");
      sc = c11::check_sc(c.exec, derived);
    }
    keep(sc);
    if (c.exec.size() > initial_events) {
      std::optional<c11::DataRace> race;
      {
        Timed t(log, "c11.race_with");
        race = c11::race_with(c.exec, derived, c.exec.size() - 1);
      }
      keep(race);
    }
    std::vector<interp::ConfigStep> successors;
    {
      Timed t(log, "interp.successors");
      successors = interp::successors(c, opts);
    }
    keep(successors);

    if (steps.empty()) {
      unwind();
      continue;
    }
    const interp::Step step = steps[rng() % steps.size()];
    if (undo.size() <= depth) undo.resize(depth + 1);
    {
      Timed t(log, "interp.apply");
      interp::apply_step(c, step, opts, undo[depth]);
    }
    if (!step.silent) events.push_back({step.thread, step.action, step.observed});
    ++depth;
  }
  unwind();
  log.close(root);
}

}  // namespace vbench
