#include "helpers.hpp"

#include <stdexcept>

#include "c11/races.hpp"
#include "mc/explorer.hpp"

namespace rc11::testing {

Example32 make_example_32() {
  using c11::Action;
  Example32 e;
  c11::Execution& ex = e.ex;
  e.init_x = ex.add_event(0, Action::wr(e.x, 0));
  e.init_y = ex.add_event(0, Action::wr(e.y, 0));
  e.init_z = ex.add_event(0, Action::wr(e.z, 0));

  // Thread 2: wr(y,1) ; wrR(x,2)  (message-passing idiom: data then flag).
  e.wr2_y = ex.add_event(2, Action::wr(e.y, 1));
  ex.mo_insert_after(e.init_y, e.wr2_y);

  e.wr2_x = ex.add_event(2, Action::wr_rel(e.x, 2));
  ex.mo_insert_after(e.init_x, e.wr2_x);

  // Thread 1: updRA(x,2,4), reading the releasing write.
  e.upd1_x = ex.add_event(1, Action::upd(e.x, 2, 4));
  ex.add_rf(e.wr2_x, e.upd1_x);
  ex.mo_insert_after(e.wr2_x, e.upd1_x);

  // Thread 3: rdA(x,2) ; wr(z,3).
  e.rd3_x = ex.add_event(3, Action::rd_acq(e.x, 2));
  ex.add_rf(e.wr2_x, e.rd3_x);

  e.wr3_z = ex.add_event(3, Action::wr(e.z, 3));
  ex.mo_insert_after(e.init_z, e.wr3_z);

  // Thread 4: updRA(y,0,5) reading the *initial* write (and therefore
  // inserted into mo|y between wr0(y,0) and wr2(y,1)), then rd(z,3).
  e.upd4_y = ex.add_event(4, Action::upd(e.y, 0, 5));
  ex.add_rf(e.init_y, e.upd4_y);
  ex.mo_insert_after(e.init_y, e.upd4_y);

  e.rd4_z = ex.add_event(4, Action::rd(e.z, 3));
  ex.add_rf(e.wr3_z, e.rd4_z);

  return e;
}

bool racy_by_oracle(const lang::Program& program,
                    const interp::StepOptions& step) {
  mc::ExploreOptions options;
  options.step = step;
  bool racy = false;
  mc::Visitor visitor;
  visitor.on_state = [&](const interp::Config& c) {
    racy = c11::find_race(c.exec).has_value();
    return !racy;
  };
  if (mc::explore(program, options, visitor).stats.truncated) {
    throw std::runtime_error("race oracle hit the state budget");
  }
  return racy;
}

Finals finals_by_oracle(const lang::Program& program,
                        const lang::CondPtr& cond, mc::ExploreOptions options) {
  options.por = mc::PorMode::kNone;
  options.step.tau_compress = interp::TauCompress::kEveryStep;
  Finals finals;
  mc::Visitor visitor;
  visitor.on_final = [&](const interp::Config& c) {
    finals.outcomes.insert(mc::outcome_of(c, program));
    finals.fingerprints.insert(c.exec.fingerprint());
    if (cond && interp::eval_cond(cond, c)) finals.reachable = true;
    return true;
  };
  finals.stats = mc::explore(program, options, visitor).stats;
  return finals;
}

}  // namespace rc11::testing
