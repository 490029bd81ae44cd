#include "vcgen/peterson.hpp"

#include "util/fmt.hpp"

namespace rc11::vcgen {

namespace {

using lang::assign;
using lang::assign_rel;
using lang::labeled;
using lang::seq;
using lang::SharedVar;
using lang::skip;
using lang::swap;
using lang::while_do;

/// Lines 2-6 for thread t: flags and turn per Algorithm 1. `mine` is
/// flag_t, `theirs` is flag_t^, `other` is the other thread's id.
lang::ComPtr peterson_body(SharedVar mine, SharedVar theirs, SharedVar turn,
                           lang::Value other) {
  // Guard of line 4: (flag_t^ = true)^A && turn = t^. The acquire
  // annotation sits on the flag read; the turn read is relaxed.
  lang::ExprPtr guard =
      (theirs.acq() == lang::constant(1)) &&
      (lang::ExprPtr(turn) == lang::constant(other));
  return seq({
      labeled(2, assign(mine, 1)),
      labeled(3, swap(turn, other)),
      labeled(4, while_do(std::move(guard), skip())),
      labeled(5, skip()),  // critical section
      labeled(6, assign_rel(mine, 0)),
  });
}

}  // namespace

lang::Program make_peterson(PetersonHandles* handles) {
  lang::ProgramBuilder b;
  PetersonHandles h;
  h.flag1 = b.var("flag1", 0);
  h.flag2 = b.var("flag2", 0);
  h.turn = b.var("turn", 1);
  b.thread(peterson_body(h.flag1, h.flag2, h.turn, 2));
  b.thread(peterson_body(h.flag2, h.flag1, h.turn, 1));
  if (handles != nullptr) *handles = h;
  return std::move(b).build();
}

lang::Program make_peterson_rounds(int rounds, PetersonHandles* handles) {
  lang::ProgramBuilder b;
  PetersonHandles h;
  h.flag1 = b.var("flag1", 0);
  h.flag2 = b.var("flag2", 0);
  h.turn = b.var("turn", 1);
  auto rounds_reg = [&](const char* name) { return b.reg(name); };
  const lang::Register r1 = rounds_reg("rounds1");
  const lang::Register r2 = rounds_reg("rounds2");
  auto looped = [&](SharedVar mine, SharedVar theirs, lang::Value other,
                    lang::Register counter) {
    // while (counter < rounds) { lines 2-6; counter := counter + 1 }
    return while_do(
        lang::ExprPtr(counter) < lang::constant(rounds),
        seq(peterson_body(mine, theirs, h.turn, other),
            lang::reg_assign(counter,
                             lang::ExprPtr(counter) + lang::constant(1))));
  };
  b.thread(looped(h.flag1, h.flag2, 2, r1));
  b.thread(looped(h.flag2, h.flag1, 1, r2));
  if (handles != nullptr) *handles = h;
  return std::move(b).build();
}

std::vector<NamedInvariant> peterson_invariants(const PetersonHandles& h) {
  const c11::VarId flag[3] = {0, h.flag1.id, h.flag2.id};
  const c11::VarId turn = h.turn.id;

  auto in_456 = [](int pc) { return pc == 4 || pc == 5 || pc == 6; };
  auto in_3456 = [](int pc) { return pc >= 3 && pc <= 6; };

  // Every assertion below reads only hb: the one push_event maintains on
  // the exploration spine, or a from-scratch one while the cache is
  // invalid (c11::with_hb).
  using Hb = util::Relation;
  std::vector<NamedInvariant> out;

  out.push_back({"inv4: turn is update-only",
                 [turn](const interp::Config& c) {
                   return c.exec.is_update_only(turn);
                 }});

  out.push_back(
      {"inv5: turn =_1 2 \\/ turn =_2 1", [turn](const interp::Config& c) {
         return c11::with_hb(c.exec, [&](const Hb& hb) {
           return determinate_value(c.exec, hb, 1, turn, 2) ||
                  determinate_value(c.exec, hb, 2, turn, 1);
         });
       }});

  out.push_back({"inv6: pc_t in {3..6} => flag_t =_t true",
                 [flag, in_3456](const interp::Config& c) {
                   return c11::with_hb(c.exec, [&](const Hb& hb) {
                     for (c11::ThreadId t = 1; t <= 2; ++t) {
                       if (in_3456(c.pc(t)) &&
                           !determinate_value(c.exec, hb, t, flag[t], 1)) {
                         return false;
                       }
                     }
                     return true;
                   });
                 }});

  out.push_back({"inv7: pc_t in {4..6} => flag_t -> turn",
                 [flag, turn, in_456](const interp::Config& c) {
                   return c11::with_hb(c.exec, [&](const Hb& hb) {
                     for (c11::ThreadId t = 1; t <= 2; ++t) {
                       if (in_456(c.pc(t)) &&
                           !var_order(c.exec, hb, flag[t], turn)) {
                         return false;
                       }
                     }
                     return true;
                   });
                 }});

  out.push_back(
      {"inv8: both in {4..6} => flag_t^ =_t true \\/ turn =_t^ t",
       [flag, turn, in_456](const interp::Config& c) {
         return c11::with_hb(c.exec, [&](const Hb& hb) {
           for (c11::ThreadId t = 1; t <= 2; ++t) {
             const c11::ThreadId other = 3 - t;
             if (in_456(c.pc(t)) && in_456(c.pc(other))) {
               if (!determinate_value(c.exec, hb, t, flag[other], 1) &&
                   !determinate_value(c.exec, hb, other, turn, t)) {
                 return false;
               }
             }
           }
           return true;
         });
       }});

  out.push_back(
      {"inv9: pc_t = 5 /\\ pc_t^ in {4..6} => turn =_t^ t",
       [turn, in_456](const interp::Config& c) {
         return c11::with_hb(c.exec, [&](const Hb& hb) {
           for (c11::ThreadId t = 1; t <= 2; ++t) {
             const c11::ThreadId other = 3 - t;
             if (c.pc(t) == 5 && in_456(c.pc(other)) &&
                 !determinate_value(c.exec, hb, other, turn, t)) {
               return false;
             }
           }
           return true;
         });
       }});

  out.push_back({"inv10: pc_t = 2 => flag_t =_t false",
                 [flag](const interp::Config& c) {
                   return c11::with_hb(c.exec, [&](const Hb& hb) {
                     for (c11::ThreadId t = 1; t <= 2; ++t) {
                       if (c.pc(t) == 2 &&
                           !determinate_value(c.exec, hb, t, flag[t], 0)) {
                         return false;
                       }
                     }
                     return true;
                   });
                 }});

  return out;
}

mc::ConfigPredicate mutual_exclusion() {
  return [](const interp::Config& c) {
    return !(c.pc(1) == 5 && c.pc(2) == 5);
  };
}

}  // namespace rc11::vcgen
