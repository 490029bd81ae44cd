// Tests for the interpreted semantics (Section 3.3): configurations,
// successor enumeration under ==>_RA, the pre-execution semantics ==>_PE
// (Section 4.1, Example 4.5), tau compression and loop bounding.
#include <gtest/gtest.h>

#include "c11/axioms.hpp"
#include "interp/config.hpp"
#include "interp/preexec.hpp"
#include "lang/builder.hpp"

namespace rc11::interp {
namespace {

using lang::assign;
using lang::constant;
using lang::ProgramBuilder;
using lang::reg_assign;
using lang::seq;

TEST(Config, InitialConfigMatchesProgram) {
  ProgramBuilder b;
  auto x = b.var("x", 3);
  b.thread({assign(x, 1)});
  b.thread({assign(x, 2)});
  const Program p = std::move(b).build();
  const Config c = initial_config(p);
  EXPECT_EQ(c.thread_count(), 2u);
  EXPECT_EQ(c.exec.size(), 1u);
  EXPECT_EQ(c.exec.event(0).wrval(), 3);
  EXPECT_FALSE(c.terminated());
}

TEST(Config, SuccessorsEnumerateThreadChoices) {
  ProgramBuilder b;
  auto x = b.var("x", 0);
  b.thread({assign(x, 1)});
  b.thread({assign(x, 2)});
  const Program p = std::move(b).build();
  const Config c = initial_config(p);
  // Each thread has one write with one insertion point (after init).
  const auto succs = successors(c);
  ASSERT_EQ(succs.size(), 2u);
  EXPECT_EQ(succs[0].thread, 1u);
  EXPECT_EQ(succs[1].thread, 2u);
  for (const auto& s : succs) {
    EXPECT_FALSE(s.silent);
    EXPECT_TRUE(c11::is_valid(s.next.exec));
  }
}

TEST(Config, ReadBranchesOverObservableWrites) {
  // x already has two mo-ordered writes; a fresh reader sees both options.
  ProgramBuilder b;
  auto x = b.var("x", 0);
  auto r0 = b.reg("r0");
  b.thread({assign(x, 1), reg_assign(r0, lang::ExprPtr(x))});
  const Program p = std::move(b).build();
  Config c = initial_config(p);
  // Execute the write first.
  auto succs = successors(c);
  ASSERT_EQ(succs.size(), 1u);
  c = succs[0].next;
  // skip; regassign -> silent first.
  succs = successors(c);
  ASSERT_EQ(succs.size(), 1u);
  ASSERT_TRUE(succs[0].silent);
  c = succs[0].next;
  // Thread 1 has encountered its own write, so only that is readable.
  succs = successors(c);
  ASSERT_EQ(succs.size(), 1u);
  EXPECT_EQ(succs[0].action.rdval(), 1);
}

TEST(Config, FreshReaderSeesAllWrites) {
  ProgramBuilder b;
  auto x = b.var("x", 0);
  auto r0 = b.reg("r0");
  b.thread({assign(x, 1)});
  b.thread({reg_assign(r0, lang::ExprPtr(x))});
  const Program p = std::move(b).build();
  Config c = initial_config(p);
  c = successors(c)[0].next;  // thread 1 writes
  // Thread 2 read: 2 options (init 0 and the new 1).
  const auto succs = successors(c);
  std::size_t reads = 0;
  for (const auto& s : succs) {
    if (!s.silent && s.thread == 2) ++reads;
  }
  EXPECT_EQ(reads, 2u);
}

TEST(Config, RegisterFileUpdatedByReads) {
  ProgramBuilder b;
  auto x = b.var("x", 7);
  auto r0 = b.reg("r0");
  b.thread({reg_assign(r0, lang::ExprPtr(x))});
  const Program p = std::move(b).build();
  Config c = initial_config(p);
  c = successors(c)[0].next;  // the read
  c = successors(c)[0].next;  // the register write (silent)
  EXPECT_TRUE(c.terminated());
  EXPECT_EQ(c.regs[0][r0.id], 7);
}

TEST(Config, CapturingSwapWritesRegister) {
  ProgramBuilder b;
  auto x = b.var("x", 5);
  auto r0 = b.reg("r0");
  b.thread({lang::swap_into(r0, x, 9)});
  const Program p = std::move(b).build();
  Config c = initial_config(p);
  const auto succs = successors(c);
  ASSERT_EQ(succs.size(), 1u);
  EXPECT_EQ(succs[0].next.regs[0][r0.id], 5);
  EXPECT_EQ(succs[0].next.exec.event(succs[0].event).wrval(), 9);
}

TEST(Config, PcTracksLabels) {
  ProgramBuilder b;
  auto x = b.var("x", 0);
  b.thread(seq(lang::labeled(2, assign(x, 1)),
               lang::labeled(3, assign(x, 2))));
  const Program p = std::move(b).build();
  Config c = initial_config(p);
  EXPECT_EQ(c.pc(1), 2);
  c = successors(c)[0].next;
  EXPECT_EQ(c.pc(1), 3);
}

TEST(Config, TauCompressionSkipsSilentSteps) {
  ProgramBuilder b;
  auto x = b.var("x", 0);
  b.thread({assign(x, 1), assign(x, 2)});
  const Program p = std::move(b).build();
  StepOptions opts;
  opts.tau_compress = TauCompress::kFused;
  Config c = initial_config(p);
  c = successors(c, opts)[0].next;
  // The skip-elimination silent step was compressed away: next step is
  // directly the second write.
  const auto succs = successors(c, opts);
  ASSERT_EQ(succs.size(), 1u);
  EXPECT_FALSE(succs[0].silent);
  EXPECT_EQ(succs[0].action.wrval(), 2);
}

TEST(Config, LoopBoundCutsUnfoldings) {
  ProgramBuilder b;
  auto x = b.var("x", 0);
  b.thread({lang::while_do(lang::ExprPtr(x) == constant(0), lang::skip())});
  const Program p = std::move(b).build();
  StepOptions opts;
  opts.loop_bound = 0;
  const Config c = initial_config(p);
  EXPECT_TRUE(successors(c, opts).empty());
  opts.loop_bound = 1;
  const auto succs = successors(c, opts);
  ASSERT_EQ(succs.size(), 1u);
  EXPECT_TRUE(succs[0].loop_unfold);
  EXPECT_EQ(succs[0].next.unfoldings[0], 1);
}

TEST(Config, CanonicalKeyMergesIndependentInterleavings) {
  ProgramBuilder b;
  auto x = b.var("x", 0);
  auto y = b.var("y", 0);
  b.thread({assign(x, 1)});
  b.thread({assign(y, 1)});
  const Program p = std::move(b).build();
  const Config c = initial_config(p);
  const auto s = successors(c);
  ASSERT_EQ(s.size(), 2u);
  // After thread 1 moves, only thread 2 can move (and vice versa).
  const auto s_ab = successors(s[0].next);
  const auto s_ba = successors(s[1].next);
  ASSERT_EQ(s_ab.size(), 1u);
  ASSERT_EQ(s_ba.size(), 1u);
  EXPECT_EQ(s_ab[0].next.canonical_key(), s_ba[0].next.canonical_key());
}

// --- eval_cond ---------------------------------------------------------------

TEST(EvalCond, RegisterAndVariableAtoms) {
  ProgramBuilder b;
  auto x = b.var("x", 0);
  auto r0 = b.reg("r0");
  b.thread({reg_assign(r0, lang::ExprPtr(x)), assign(x, 4)});
  const Program p = std::move(b).build();
  Config c = initial_config(p);
  while (!c.terminated()) c = successors(c)[0].next;
  EXPECT_TRUE(eval_cond(lang::cond_reg(1, r0.id, lang::BinOp::kEq, 0), c));
  EXPECT_TRUE(eval_cond(lang::cond_var(x.id, lang::BinOp::kEq, 4), c));
  EXPECT_TRUE(eval_cond(
      lang::cond_and(lang::cond_reg(1, r0.id, lang::BinOp::kEq, 0),
                     lang::cond_var(x.id, lang::BinOp::kNe, 5)),
      c));
  EXPECT_FALSE(eval_cond(
      lang::cond_not(lang::cond_var(x.id, lang::BinOp::kGe, 4)), c));
  EXPECT_TRUE(eval_cond(
      lang::cond_or(lang::cond_var(x.id, lang::BinOp::kEq, 9),
                    lang::cond_true()),
      c));
}

// --- Pre-execution semantics (Section 4.1) --------------------------------------

TEST(PreExec, ValueDomainCollectsConstants) {
  ProgramBuilder b;
  auto x = b.var("x", 3);
  b.thread({assign(x, 7)});
  const Program p = std::move(b).build();
  const auto dom = value_domain(p);
  // {0, 1, 3, 7}
  EXPECT_EQ(dom, (std::vector<Value>{0, 1, 3, 7}));
}

TEST(PreExec, ReadsBranchOverDomain) {
  ProgramBuilder b;
  auto x = b.var("x", 0);
  auto r0 = b.reg("r0");
  b.thread({reg_assign(r0, lang::ExprPtr(x))});
  const Program p = std::move(b).build();
  const Config c = initial_config(p);
  const auto succs = pe_successors(c, {0, 1, 5});
  ASSERT_EQ(succs.size(), 3u);
  for (const auto& s : succs) {
    EXPECT_TRUE(s.next.exec.rf().empty());  // no rf in pre-executions
    EXPECT_EQ(s.observed, c11::kNoEvent);
  }
  EXPECT_EQ(succs[2].action.rdval(), 5);
}

TEST(PreExec, Example45ReadBeforeWrite) {
  // thread 1: z := x; thread 2: x := 5. The PE semantics can read x = 5
  // *before* thread 2 writes (the justification comes later); the RA
  // semantics cannot.
  ProgramBuilder b;
  auto x = b.var("x", 0);
  auto z = b.var("z", 0);
  b.thread({assign(z, lang::ExprPtr(x))});
  b.thread({assign(x, 5)});
  const Program p = std::move(b).build();
  const Config c0 = initial_config(p);

  // PE: thread 1 may immediately read 5.
  bool pe_reads_5_first = false;
  for (const auto& s : pe_successors(c0, value_domain(p))) {
    if (s.thread == 1 && !s.silent && s.action.is_read() &&
        s.action.rdval() == 5) {
      pe_reads_5_first = true;
    }
  }
  EXPECT_TRUE(pe_reads_5_first);

  // RA: thread 1's first read can only return 0 (only the init write
  // exists).
  for (const auto& s : successors(c0)) {
    if (s.thread == 1 && !s.silent) {
      EXPECT_EQ(s.action.rdval(), 0);
    }
  }

  // But the same final state is reachable in RA by scheduling thread 2
  // first (the reordering of Example 4.5).
  Config c = c0;
  // thread 2 writes x := 5.
  for (const auto& s : successors(c)) {
    if (s.thread == 2) {
      c = s.next;
      break;
    }
  }
  // thread 1 now reads 5 and writes z := 5.
  bool read5 = false;
  for (const auto& s : successors(c)) {
    if (s.thread == 1 && !s.silent && s.action.rdval() == 5) {
      c = s.next;
      read5 = true;
      break;
    }
  }
  EXPECT_TRUE(read5);
  while (!c.terminated()) {
    bool advanced = false;
    for (const auto& s : successors(c)) {
      c = s.next;
      advanced = true;
      break;
    }
    ASSERT_TRUE(advanced);
  }
  EXPECT_EQ(c.exec.event(c.exec.last(z.id)).wrval(), 5);
  EXPECT_TRUE(c11::is_valid(c.exec));
}

TEST(PreExec, WidenDomainClosesArithmetic) {
  ProgramBuilder b;
  auto x = b.var("x", 0);
  b.thread({assign(x, lang::ExprPtr(x) + constant(1))});
  const Program p = std::move(b).build();
  const auto dom = widen_domain(p, value_domain(p), 1);
  // 0,1 plus sums: 0+0, 0+1, 1+1.
  EXPECT_NE(std::find(dom.begin(), dom.end(), 2), dom.end());
}

}  // namespace
}  // namespace rc11::interp
