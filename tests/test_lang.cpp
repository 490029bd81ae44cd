// Tests for the command language: expression evaluation (Figure 1),
// command stepping (Figure 2), registers, labels/pc, folding, and
// Propositions 2.2 (value-agnostic reads).
#include <gtest/gtest.h>

#include "lang/builder.hpp"
#include "lang/command.hpp"
#include "lang/expr.hpp"

namespace rc11::lang {
namespace {

// --- Expressions ----------------------------------------------------------

TEST(Expr, EvalClosedArithmetic) {
  // (2 + 3) * 4 - 1 == 19
  const ExprPtr e = binary(
      BinOp::kSub,
      binary(BinOp::kMul, binary(BinOp::kAdd, constant(2), constant(3)),
             constant(4)),
      constant(1));
  EXPECT_EQ(eval_closed(e), 19);
}

TEST(Expr, EvalClosedBooleans) {
  EXPECT_EQ(eval_closed(binary(BinOp::kEq, constant(2), constant(2))), 1);
  EXPECT_EQ(eval_closed(binary(BinOp::kLt, constant(3), constant(2))), 0);
  EXPECT_EQ(eval_closed(unary(UnOp::kNot, constant(0))), 1);
  EXPECT_EQ(eval_closed(unary(UnOp::kMinus, constant(5))), -5);
  EXPECT_EQ(eval_closed(binary(BinOp::kAnd, constant(2), constant(3))), 1);
  EXPECT_EQ(eval_closed(binary(BinOp::kOr, constant(0), constant(0))), 0);
}

TEST(Expr, EvalClosedThrowsOnOpenExpression) {
  EXPECT_THROW((void)eval_closed(shared(0)), std::logic_error);
  EXPECT_THROW((void)eval_closed(reg(0)), std::logic_error);
}

TEST(Expr, NextReadIsLeftmostSharedOccurrence) {
  // x + (y + x): reads are x, then y, then x again (three reads).
  ExprPtr e = binary(BinOp::kAdd, shared(0),
                     binary(BinOp::kAdd, shared(1), shared(0)));
  auto r1 = next_read(e);
  ASSERT_TRUE(r1.has_value());
  EXPECT_EQ(r1->var, 0u);
  e = substitute_leftmost(e, 10);
  auto r2 = next_read(e);
  ASSERT_TRUE(r2.has_value());
  EXPECT_EQ(r2->var, 1u);
  e = substitute_leftmost(e, 20);
  auto r3 = next_read(e);
  ASSERT_TRUE(r3.has_value());
  EXPECT_EQ(r3->var, 0u);  // second occurrence of x: a separate read
  e = substitute_leftmost(e, 30);
  EXPECT_FALSE(next_read(e).has_value());
  EXPECT_EQ(eval_closed(e), 60);
}

TEST(Expr, AcquireAnnotationSurvivesTraversal) {
  const ExprPtr e = binary(BinOp::kEq, shared_acq(3), constant(1));
  const auto r = next_read(e);
  ASSERT_TRUE(r.has_value());
  EXPECT_TRUE(r->acquire);
  EXPECT_EQ(r->var, 3u);
}

TEST(Expr, ResolveRegistersSubstitutesValues) {
  const ExprPtr e = binary(BinOp::kAdd, reg(0), reg(1));
  const ExprPtr resolved = resolve_registers(e, {7, 8});
  EXPECT_EQ(eval_closed(resolved), 15);
  // Out-of-range registers default to 0.
  const ExprPtr r2 = resolve_registers(reg(5), {1});
  EXPECT_EQ(eval_closed(r2), 0);
}

TEST(Expr, SharedVarsDeduplicated) {
  const ExprPtr e = binary(BinOp::kAdd, shared(2),
                           binary(BinOp::kAdd, shared(1), shared(2)));
  EXPECT_EQ(shared_vars(e), (std::vector<VarId>{1, 2}));
  EXPECT_TRUE(has_shared(e));
  EXPECT_FALSE(has_reg(e));
}

TEST(Expr, FoldShortCircuitsAnd) {
  // 0 && x folds to 0 without leaving a pending read of x.
  const ExprPtr e =
      binary(BinOp::kAnd, constant(0), binary(BinOp::kEq, shared(0),
                                              constant(1)));
  const ExprPtr f = fold(e);
  EXPECT_FALSE(next_read(f).has_value());
  EXPECT_EQ(eval_closed(f), 0);
  // 1 && (x == 1) folds to (x == 1): the read remains.
  const ExprPtr g = fold(binary(BinOp::kAnd, constant(1),
                                binary(BinOp::kEq, shared(0), constant(1))));
  EXPECT_TRUE(next_read(g).has_value());
}

TEST(Expr, FoldShortCircuitsOr) {
  const ExprPtr e = binary(BinOp::kOr, constant(1), shared(0));
  EXPECT_FALSE(next_read(fold(e)).has_value());
  EXPECT_EQ(eval_closed(fold(e)), 1);
}

TEST(Expr, FoldConstantSubtrees) {
  const ExprPtr e = binary(BinOp::kAdd, constant(2), constant(3));
  EXPECT_EQ(fold(e)->kind, ExprKind::kConst);
  EXPECT_EQ(fold(e)->value, 5);
}

TEST(Expr, ToStringRendersStructure) {
  c11::VarTable vars;
  vars.intern("x");
  const ExprPtr e = binary(BinOp::kEq, shared_acq(0), constant(1));
  EXPECT_EQ(e->to_string(&vars), "(x^A == 1)");
}

// --- Commands: Figure 2 -----------------------------------------------------

RegFile no_regs;

TEST(Command, SkipHasNoStep) {
  EXPECT_FALSE(step(skip(), no_regs).has_value());
  EXPECT_TRUE(is_terminated(skip()));
}

TEST(Command, ClosedAssignEmitsWrite) {
  const ComPtr c = assign(0, constant(5));
  auto s = step(c, no_regs);
  ASSERT_TRUE(s.has_value());
  auto* wr = std::get_if<WriteStep>(&*s);
  ASSERT_NE(wr, nullptr);
  EXPECT_EQ(wr->var, 0u);
  EXPECT_EQ(wr->value, 5);
  EXPECT_FALSE(wr->release);
  EXPECT_TRUE(is_terminated(wr->next));
}

TEST(Command, ReleaseAssignMarksRelease) {
  auto s = step(assign_rel(0, constant(1)), no_regs);
  ASSERT_TRUE(s.has_value());
  auto* wr = std::get_if<WriteStep>(&*s);
  ASSERT_NE(wr, nullptr);
  EXPECT_TRUE(wr->release);
}

TEST(Command, OpenAssignEmitsReadThenWrite) {
  // x := y + 1 reads y, then writes x.
  const ComPtr c = assign(0, binary(BinOp::kAdd, shared(1), constant(1)));
  auto s = step(c, no_regs);
  ASSERT_TRUE(s.has_value());
  auto* rd = std::get_if<ReadStep>(&*s);
  ASSERT_NE(rd, nullptr);
  EXPECT_EQ(rd->var, 1u);
  // Proposition 2.2: the continuation accepts any value.
  for (Value v : {0, 7, -3}) {
    const ComPtr next = rd->next(v);
    auto s2 = step(next, no_regs);
    ASSERT_TRUE(s2.has_value());
    auto* wr = std::get_if<WriteStep>(&*s2);
    ASSERT_NE(wr, nullptr);
    EXPECT_EQ(wr->value, v + 1);
  }
}

TEST(Command, RegAssignSilentAtMemoryLevel) {
  const ComPtr c = reg_assign(2, constant(9));
  auto s = step(c, no_regs);
  ASSERT_TRUE(s.has_value());
  auto* rw = std::get_if<RegWriteStep>(&*s);
  ASSERT_NE(rw, nullptr);
  EXPECT_EQ(rw->reg, 2u);
  EXPECT_EQ(rw->value, 9);
}

TEST(Command, SwapEmitsUpdate) {
  auto s = step(swap(0, constant(2)), no_regs);
  ASSERT_TRUE(s.has_value());
  auto* up = std::get_if<UpdateStep>(&*s);
  ASSERT_NE(up, nullptr);
  EXPECT_EQ(up->var, 0u);
  EXPECT_EQ(up->new_value, 2);
  EXPECT_FALSE(up->captures);
}

TEST(Command, CapturingSwapRecordsRegister) {
  auto s = step(swap_into(3, 0, constant(2)), no_regs);
  ASSERT_TRUE(s.has_value());
  auto* up = std::get_if<UpdateStep>(&*s);
  ASSERT_NE(up, nullptr);
  EXPECT_TRUE(up->captures);
  EXPECT_EQ(up->capture_reg, 3u);
}

TEST(Command, SeqStepsLeftFirstThenEliminatesSkip) {
  const ComPtr c = seq(assign(0, constant(1)), assign(1, constant(2)));
  auto s = step(c, no_regs);
  auto* wr = std::get_if<WriteStep>(&*s);
  ASSERT_NE(wr, nullptr);
  EXPECT_EQ(wr->var, 0u);
  // Continuation: skip; second — one silent step, then the second write.
  auto s2 = step(wr->next, no_regs);
  ASSERT_TRUE(s2.has_value());
  auto* sil = std::get_if<SilentStep>(&*s2);
  ASSERT_NE(sil, nullptr);
  auto s3 = step(sil->next, no_regs);
  auto* wr2 = std::get_if<WriteStep>(&*s3);
  ASSERT_NE(wr2, nullptr);
  EXPECT_EQ(wr2->var, 1u);
}

TEST(Command, IfResolvesGuardThenBranches) {
  // if (x == 1) then y := 1 else y := 2.
  const ComPtr c = if_then_else(binary(BinOp::kEq, shared(0), constant(1)),
                                assign(1, constant(1)),
                                assign(1, constant(2)));
  auto s = step(c, no_regs);
  auto* rd = std::get_if<ReadStep>(&*s);
  ASSERT_NE(rd, nullptr);
  // Value 1: then-branch.
  {
    auto s2 = step(rd->next(1), no_regs);
    auto* sil = std::get_if<SilentStep>(&*s2);
    ASSERT_NE(sil, nullptr);
    auto s3 = step(sil->next, no_regs);
    auto* wr = std::get_if<WriteStep>(&*s3);
    ASSERT_NE(wr, nullptr);
    EXPECT_EQ(wr->value, 1);
  }
  // Value 0: else-branch.
  {
    auto s2 = step(rd->next(0), no_regs);
    auto* sil = std::get_if<SilentStep>(&*s2);
    ASSERT_NE(sil, nullptr);
    auto s3 = step(sil->next, no_regs);
    auto* wr = std::get_if<WriteStep>(&*s3);
    ASSERT_NE(wr, nullptr);
    EXPECT_EQ(wr->value, 2);
  }
}

TEST(Command, WhileUnfoldsPreservingGuard) {
  // while (x == 0) do y := 1 — the guard must be re-read every iteration.
  const ExprPtr guard = binary(BinOp::kEq, shared(0), constant(0));
  const ComPtr c = while_do(guard, assign(1, constant(1)));
  auto s = step(c, no_regs);
  auto* sil = std::get_if<SilentStep>(&*s);
  ASSERT_NE(sil, nullptr);
  // Unfolded: if (x == 0) then (body; while ...) else skip.
  auto s2 = step(sil->next, no_regs);
  auto* rd = std::get_if<ReadStep>(&*s2);
  ASSERT_NE(rd, nullptr);
  EXPECT_EQ(rd->var, 0u);
  // Guard true: body then the loop again with the ORIGINAL guard.
  ComPtr cont = rd->next(0);
  auto s3 = step(cont, no_regs);  // silent: if -> then-branch
  auto* sil3 = std::get_if<SilentStep>(&*s3);
  ASSERT_NE(sil3, nullptr);
  auto s4 = step(sil3->next, no_regs);  // body write
  auto* wr = std::get_if<WriteStep>(&*s4);
  ASSERT_NE(wr, nullptr);
  // After the body, the loop re-reads x (guard not pre-substituted).
  ComPtr after = wr->next;
  // skip; while... -> silent -> while -> silent unfold -> read.
  for (int i = 0; i < 3; ++i) {
    auto sn = step(after, no_regs);
    ASSERT_TRUE(sn.has_value());
    if (auto* sil_n = std::get_if<SilentStep>(&*sn)) {
      after = sil_n->next;
      continue;
    }
    auto* rd2 = std::get_if<ReadStep>(&*sn);
    ASSERT_NE(rd2, nullptr);
    EXPECT_EQ(rd2->var, 0u);
    return;
  }
  FAIL() << "loop did not re-read its guard";
}

TEST(Command, WhileGuardFalseTerminates) {
  const ComPtr c = while_do(binary(BinOp::kEq, shared(0), constant(0)),
                            skip());
  auto s = step(c, no_regs);                                 // unfold
  auto s2 = step(std::get<SilentStep>(*s).next, no_regs);    // guard read
  auto* rd = std::get_if<ReadStep>(&*s2);
  ASSERT_NE(rd, nullptr);
  auto s3 = step(rd->next(7), no_regs);  // guard false -> silent -> skip
  auto* sil = std::get_if<SilentStep>(&*s3);
  ASSERT_NE(sil, nullptr);
  EXPECT_TRUE(is_terminated(sil->next));
}

TEST(Command, UnfoldingSharesTheLoopNode) {
  // The back edge of an unfolded loop is the loop node itself, not a copy:
  // nodes are immutable, and drains unfold loops on the search's hot path.
  const ComPtr c = while_do(binary(BinOp::kEq, shared(0), constant(0)),
                            assign(1, constant(1)));
  auto s = step(labeled(4, c), no_regs);
  const ComPtr& unfolded = std::get<SilentStep>(*s).next;
  ASSERT_EQ(unfolded->kind, ComKind::kLabel);
  const ComPtr& guard = unfolded->c1;
  ASSERT_EQ(guard->kind, ComKind::kIf);
  ASSERT_EQ(guard->c1->kind, ComKind::kSeq);
  EXPECT_EQ(guard->c1->c2.get(), c.get());
}

// --- Labels and pc -------------------------------------------------------------

TEST(Labels, LeadingLabelThroughSeq) {
  const ComPtr c = seq(labeled(2, assign(0, constant(1))),
                       labeled(3, assign(1, constant(1))));
  EXPECT_EQ(leading_label(c), 2);
  EXPECT_FALSE(is_terminated(c));
  EXPECT_TRUE(is_terminated(labeled(5, skip())));
  EXPECT_EQ(leading_label(skip(), 0), 0);
}

TEST(Labels, PcAdvancesAfterStatementCompletes) {
  const ComPtr c = seq(labeled(2, assign(0, constant(1))),
                       labeled(3, assign(1, constant(1))));
  auto s = step(c, no_regs);
  auto* wr = std::get_if<WriteStep>(&*s);
  ASSERT_NE(wr, nullptr);
  // After line 2's write, the pc is 3 (skip; labeled(3,...)).
  EXPECT_EQ(leading_label(wr->next), 3);
}

TEST(Labels, StickyThroughMultiStepStatement) {
  // 4: x := y + z takes two reads; the label must persist across them.
  const ComPtr c =
      labeled(4, assign(0, binary(BinOp::kAdd, shared(1), shared(2))));
  auto s = step(c, no_regs);
  auto* rd = std::get_if<ReadStep>(&*s);
  ASSERT_NE(rd, nullptr);
  const ComPtr mid = rd->next(1);
  EXPECT_EQ(leading_label(mid), 4);
  auto s2 = step(mid, no_regs);
  auto* rd2 = std::get_if<ReadStep>(&*s2);
  ASSERT_NE(rd2, nullptr);
  EXPECT_EQ(leading_label(rd2->next(2)), 4);
}

TEST(Labels, StickyThroughWhileSpin) {
  // 4: while (x == 0) skip — pc stays 4 across unfold, guard reads and
  // re-iterations.
  const ComPtr c =
      labeled(4, while_do(binary(BinOp::kEq, shared(0), constant(0)),
                          skip()));
  ComPtr cur = c;
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(leading_label(cur), 4) << "iteration " << i;
    auto s = step(cur, no_regs);
    ASSERT_TRUE(s.has_value());
    if (auto* sil = std::get_if<SilentStep>(&*s)) {
      cur = sil->next;
    } else if (auto* rd = std::get_if<ReadStep>(&*s)) {
      cur = rd->next(0);  // keep spinning
    }
  }
  EXPECT_EQ(leading_label(cur), 4);
}

TEST(Labels, LabelDropsWhenGuardFails) {
  const ComPtr c =
      seq(labeled(4, while_do(binary(BinOp::kEq, shared(0), constant(0)),
                              skip())),
          labeled(5, skip()));
  // unfold -> read guard false -> if-resolution -> pc 5.
  auto s = step(c, no_regs);
  ComPtr cur = std::get<SilentStep>(*s).next;
  auto s2 = step(cur, no_regs);
  auto* rd = std::get_if<ReadStep>(&*s2);
  ASSERT_NE(rd, nullptr);
  cur = rd->next(9);  // guard false
  auto s3 = step(cur, no_regs);
  cur = std::get<SilentStep>(*s3).next;
  EXPECT_EQ(leading_label(cur), 5);
}

// --- peek_step / step lock-step --------------------------------------------
//
// peek_step re-derives step()'s classification without building
// continuations; the two implementations must agree on every reachable
// continuation. Walk the full (bounded) continuation trees of programs
// exercising labels, Seq spines, short-circuit guards, registers, NA/
// release/acquire access modes and capturing swaps, branching reads over
// several values.

namespace {

ComKind stepping_kind(const ComPtr& c) {
  switch (c->kind) {
    case ComKind::kLabel:
      return stepping_kind(c->c1);
    case ComKind::kSeq:
      if (is_terminated(c->c1)) return ComKind::kSeq;
      return stepping_kind(c->c1);
    default:
      return c->kind;
  }
}

void write_reg(RegFile& regs, RegId r, Value v) {
  if (r >= regs.size()) regs.resize(r + 1, 0);
  regs[r] = v;
}

void expect_peek_matches(const ComPtr& c, RegFile regs, int depth) {
  if (depth == 0) return;
  const StepPeek pk = peek_step(c, regs);
  auto s = step(c, regs);
  // is_stutter decides without building the continuation what building it
  // shows: a silent non-unfolding step that keeps the pc and termination.
  const auto* sil = s ? std::get_if<SilentStep>(&*s) : nullptr;
  EXPECT_EQ(is_stutter(c, regs),
            sil != nullptr && stepping_kind(c) != ComKind::kWhile &&
                leading_label(sil->next) == leading_label(c) &&
                is_terminated(sil->next) == is_terminated(c))
      << c->to_string();
  if (!s) {
    EXPECT_EQ(pk.kind, PeekKind::kNone) << c->to_string();
    return;
  }
  if (sil != nullptr) {
    ASSERT_EQ(pk.kind, PeekKind::kSilent) << c->to_string();
    EXPECT_EQ(pk.loop_unfold, stepping_kind(c) == ComKind::kWhile)
        << c->to_string();
    expect_peek_matches(sil->next, std::move(regs), depth - 1);
  } else if (auto* rw = std::get_if<RegWriteStep>(&*s)) {
    ASSERT_EQ(pk.kind, PeekKind::kRegWrite) << c->to_string();
    write_reg(regs, rw->reg, rw->value);
    expect_peek_matches(rw->next, std::move(regs), depth - 1);
  } else if (auto* wr = std::get_if<WriteStep>(&*s)) {
    ASSERT_EQ(pk.kind, PeekKind::kWrite) << c->to_string();
    EXPECT_EQ(pk.var, wr->var);
    EXPECT_EQ(pk.value, wr->value);
    EXPECT_EQ(pk.release, wr->release);
    EXPECT_EQ(pk.nonatomic, wr->nonatomic);
    expect_peek_matches(wr->next, std::move(regs), depth - 1);
  } else if (auto* rd = std::get_if<ReadStep>(&*s)) {
    ASSERT_EQ(pk.kind, PeekKind::kRead) << c->to_string();
    EXPECT_EQ(pk.var, rd->var);
    EXPECT_EQ(pk.acquire, rd->acquire);
    EXPECT_EQ(pk.nonatomic, rd->nonatomic);
    for (Value v : {Value{0}, Value{1}}) {
      expect_peek_matches(rd->next(v), regs, depth - 1);
    }
  } else {
    auto* up = std::get_if<UpdateStep>(&*s);
    ASSERT_NE(up, nullptr);
    ASSERT_EQ(pk.kind, PeekKind::kUpdate) << c->to_string();
    EXPECT_EQ(pk.var, up->var);
    EXPECT_EQ(pk.value, up->new_value);
    if (up->captures) write_reg(regs, up->capture_reg, 3);
    expect_peek_matches(up->next, std::move(regs), depth - 1);
  }
}

}  // namespace

TEST(PeekStep, LockStepWithStepOnSpinLoopProgram) {
  // Peterson-style: labels, a while with a short-circuit && guard mixing an
  // acquiring shared read with a register compare, and a capturing swap.
  const ComPtr spin = while_do(
      binary(BinOp::kAnd, binary(BinOp::kEq, shared_acq(0), constant(1)),
             binary(BinOp::kEq, shared(1), reg(0))),
      labeled(4, reg_assign(1, binary(BinOp::kAdd, reg(1), constant(1)))));
  const ComPtr prog = seq(
      {labeled(1, assign(0, constant(1))),
       labeled(2, assign_rel(1, binary(BinOp::kAdd, shared(0), constant(1)))),
       labeled(3, spin),
       labeled(5, swap_into(2, 0, binary(BinOp::kAdd, reg(1), shared(1))))});
  expect_peek_matches(prog, RegFile{0, 0, 0}, 12);
}

TEST(PeekStep, LockStepWithStepOnNonatomicAndFoldQuirks) {
  // fold() passes `nonzero && E` through as E itself (not coerced to a
  // boolean), so `x := (2 && 7)` writes 7; the peek must reproduce that.
  const ComPtr prog = seq(
      {assign(0, binary(BinOp::kAnd, constant(2), constant(7))),
       assign_na(1, binary(BinOp::kOr, shared_na(2), constant(0))),
       if_then_else(binary(BinOp::kOr, reg(0), shared(3)),
                    swap(4, unary(UnOp::kMinus, constant(2))), skip()),
       assign(5, binary(BinOp::kOr, reg(1), constant(5)))});
  expect_peek_matches(prog, RegFile{0, 2}, 12);
}

TEST(Stutter, SilentStepsThatKeepThePcAndTerminationAreStutters) {
  // A sticky label keeps pc 1 across the skip elimination inside it.
  EXPECT_TRUE(is_stutter(labeled(1, seq(skip(), assign(0, constant(1)))),
                         {}));
  // The guard resolves, and a statement still follows at pc 0.
  EXPECT_TRUE(is_stutter(
      seq(if_then_else(constant(1), skip(), skip()), assign(0, constant(1))),
      {}));
}

TEST(Stutter, PcMovesTerminationUnfoldsAndRegisterWritesAreNotStutters) {
  // Skip elimination that reaches the next labelled line: pc 1 -> 2.
  EXPECT_FALSE(is_stutter(
      seq(labeled(1, skip()), labeled(2, assign(0, constant(1)))), {}));
  // A guard resolving into skip at the end of the thread keeps pc 0 but
  // terminates the thread.
  EXPECT_FALSE(
      is_stutter(if_then_else(constant(0), assign(0, constant(1)), skip()),
                 {}));
  EXPECT_FALSE(is_stutter(while_do(constant(1), skip()), {}));
  EXPECT_FALSE(is_stutter(reg_assign(0, constant(1)), {}));
  EXPECT_FALSE(is_stutter(assign(0, constant(1)), {}));
  EXPECT_FALSE(is_stutter(skip(), {}));
}

// --- Builder sugar ---------------------------------------------------------------

TEST(Builder, HandlesAndOperators) {
  ProgramBuilder b;
  auto x = b.var("x", 0);
  auto r0 = b.reg("r0");
  b.thread({assign(x, 1), reg_assign(r0, x.acq())});
  const Program p = std::move(b).build();
  EXPECT_EQ(p.thread_count(), 1u);
  EXPECT_EQ(p.vars().name(x.id), "x");
  EXPECT_EQ(p.reg_name(r0.id), "r0");
  ASSERT_EQ(p.initial_values().size(), 1u);
  EXPECT_EQ(p.initial_values()[0].second, 0);
}

TEST(Builder, ExpressionOperatorsBuildTrees) {
  const ExprPtr e = (constant(1) + constant(2)) == constant(3);
  EXPECT_EQ(eval_closed(e), 1);
  const ExprPtr f = !(constant(1) != constant(1));
  EXPECT_EQ(eval_closed(f), 1);
  EXPECT_EQ(eval_closed(constant(5) * constant(3) - constant(5)), 10);
  EXPECT_EQ(eval_closed(constant(1) <= constant(0)), 0);
  EXPECT_EQ(eval_closed(constant(1) >= constant(0)), 1);
  EXPECT_EQ(eval_closed(constant(1) > constant(0)), 1);
  EXPECT_EQ(eval_closed(constant(1) < constant(0)), 0);
  EXPECT_EQ(eval_closed(constant(1) && constant(0)), 0);
  EXPECT_EQ(eval_closed(constant(1) || constant(0)), 1);
}

}  // namespace
}  // namespace rc11::lang
