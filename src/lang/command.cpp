#include "lang/command.hpp"

#include <cassert>
#include <climits>

#include "util/fingerprint.hpp"
#include "util/fmt.hpp"

namespace rc11::lang {

namespace {

ComPtr make(Com c) { return std::make_shared<const Com>(std::move(c)); }

// Sentinel for "no label found" when threading leading_label through seq.
constexpr int kNoLabel = INT_MIN;

}  // namespace

ComPtr skip() {
  static const ComPtr instance = make(Com{});
  return instance;
}

ComPtr assign(VarId x, ExprPtr e) {
  Com c;
  c.kind = ComKind::kAssign;
  c.var = x;
  c.release = false;
  c.expr = std::move(e);
  return make(std::move(c));
}

ComPtr assign_rel(VarId x, ExprPtr e) {
  Com c;
  c.kind = ComKind::kAssign;
  c.var = x;
  c.release = true;
  c.expr = std::move(e);
  return make(std::move(c));
}

ComPtr assign_na(VarId x, ExprPtr e) {
  Com c;
  c.kind = ComKind::kAssign;
  c.var = x;
  c.nonatomic = true;
  c.expr = std::move(e);
  return make(std::move(c));
}

ComPtr assign_sc(VarId x, ExprPtr e) {
  Com c;
  c.kind = ComKind::kAssign;
  c.var = x;
  c.sc = true;
  c.expr = std::move(e);
  return make(std::move(c));
}

ComPtr reg_assign(RegId r, ExprPtr e) {
  Com c;
  c.kind = ComKind::kRegAssign;
  c.reg = r;
  c.expr = std::move(e);
  return make(std::move(c));
}

ComPtr swap(VarId x, ExprPtr n) {
  Com c;
  c.kind = ComKind::kSwap;
  c.var = x;
  c.expr = std::move(n);
  return make(std::move(c));
}

ComPtr swap_sc(VarId x, ExprPtr n) {
  Com c;
  c.kind = ComKind::kSwap;
  c.var = x;
  c.sc = true;
  c.expr = std::move(n);
  return make(std::move(c));
}

ComPtr swap_into(RegId r, VarId x, ExprPtr n) {
  Com c;
  c.kind = ComKind::kSwap;
  c.var = x;
  c.reg = r;
  c.captures = true;
  c.expr = std::move(n);
  return make(std::move(c));
}

ComPtr swap_sc_into(RegId r, VarId x, ExprPtr n) {
  Com c;
  c.kind = ComKind::kSwap;
  c.var = x;
  c.reg = r;
  c.captures = true;
  c.sc = true;
  c.expr = std::move(n);
  return make(std::move(c));
}

ComPtr fence(FenceMode mode) {
  Com c;
  c.kind = ComKind::kFence;
  c.fence = mode;
  return make(std::move(c));
}

ComPtr seq(ComPtr c1, ComPtr c2) {
  Com c;
  c.kind = ComKind::kSeq;
  c.c1 = std::move(c1);
  c.c2 = std::move(c2);
  return make(std::move(c));
}

ComPtr seq(const std::vector<ComPtr>& cs) {
  if (cs.empty()) return skip();
  ComPtr out = cs.back();
  for (std::size_t i = cs.size() - 1; i-- > 0;) {
    out = seq(cs[i], out);
  }
  return out;
}

ComPtr if_then_else(ExprPtr b, ComPtr c1, ComPtr c2) {
  Com c;
  c.kind = ComKind::kIf;
  c.expr = std::move(b);
  c.c1 = std::move(c1);
  c.c2 = std::move(c2);
  return make(std::move(c));
}

ComPtr while_do(ExprPtr b, ComPtr body) {
  Com c;
  c.kind = ComKind::kWhile;
  c.expr = std::move(b);
  c.c1 = std::move(body);
  return make(std::move(c));
}

ComPtr labeled(int label, ComPtr body) {
  Com c;
  c.kind = ComKind::kLabel;
  c.label = label;
  c.c1 = std::move(body);
  return make(std::move(c));
}

bool is_terminated(const ComPtr& c) {
  switch (c->kind) {
    case ComKind::kSkip:
      return true;
    case ComKind::kLabel:
      return is_terminated(c->c1);
    case ComKind::kSeq:
      return is_terminated(c->c1) && is_terminated(c->c2);
    default:
      return false;
  }
}

int leading_label(const ComPtr& c, int done_pc) {
  switch (c->kind) {
    case ComKind::kLabel:
      return c->label;
    case ComKind::kSeq: {
      const int l = leading_label(c->c1, kNoLabel);
      if (l != kNoLabel) return l;
      return leading_label(c->c2, done_pc);
    }
    default:
      return done_pc;
  }
}

bool has_leading_label(const ComPtr& c) {
  return leading_label(c, kNoLabel) != kNoLabel;
}

namespace {

// Wraps a step's continuation(s) with `; c2` (the Seq congruence rule).
Step seq_wrap(Step s, const ComPtr& c2) {
  if (auto* sil = std::get_if<SilentStep>(&s)) {
    sil->next = seq(sil->next, c2);
  } else if (auto* wr = std::get_if<WriteStep>(&s)) {
    wr->next = seq(wr->next, c2);
  } else if (auto* rd = std::get_if<ReadStep>(&s)) {
    auto inner = std::move(rd->next);
    rd->next = [inner = std::move(inner), c2](Value v) {
      return seq(inner(v), c2);
    };
  } else if (auto* up = std::get_if<UpdateStep>(&s)) {
    up->next = seq(up->next, c2);
  } else if (auto* rw = std::get_if<RegWriteStep>(&s)) {
    rw->next = seq(rw->next, c2);
  } else if (auto* fe = std::get_if<FenceStep>(&s)) {
    fe->next = seq(fe->next, c2);
  }
  return s;
}

// Re-wraps a continuation with the sticky label l, unless the labeled
// statement has completed or control has reached a newly labeled statement.
ComPtr label_rewrap(int l, ComPtr k) {
  if (is_terminated(k) || has_leading_label(k)) return k;
  return labeled(l, std::move(k));
}

// Applies label_rewrap to every continuation of a step.
Step label_wrap(Step s, int l) {
  if (auto* sil = std::get_if<SilentStep>(&s)) {
    sil->next = label_rewrap(l, sil->next);
  } else if (auto* wr = std::get_if<WriteStep>(&s)) {
    wr->next = label_rewrap(l, wr->next);
  } else if (auto* rd = std::get_if<ReadStep>(&s)) {
    auto inner = std::move(rd->next);
    rd->next = [inner = std::move(inner), l](Value v) {
      return label_rewrap(l, inner(v));
    };
  } else if (auto* up = std::get_if<UpdateStep>(&s)) {
    up->next = label_rewrap(l, up->next);
  } else if (auto* rw = std::get_if<RegWriteStep>(&s)) {
    rw->next = label_rewrap(l, rw->next);
  } else if (auto* fe = std::get_if<FenceStep>(&s)) {
    fe->next = label_rewrap(l, fe->next);
  }
  return s;
}

}  // namespace

std::optional<Step> step(const ComPtr& c, const RegFile& regs) {
  switch (c->kind) {
    case ComKind::kSkip:
      return std::nullopt;

    case ComKind::kLabel: {
      // `l: C` steps as C; the label stays on the continuation while the
      // statement is still executing (see header).
      auto s = step(c->c1, regs);
      if (!s) return std::nullopt;
      return label_wrap(std::move(*s), c->label);
    }

    case ComKind::kAssign: {
      const ExprPtr e = fold(resolve_registers(c->expr, regs));
      if (auto pending = next_read(e)) {
        // Figure 2 first rule: x := E --a--> x := E' via eval(E, a, E').
        const Com& node = *c;
        return ReadStep{pending->var, pending->acquire, pending->nonatomic,
                        pending->sc, [e, node](Value v) {
                          Com c2 = node;
                          c2.expr = substitute_leftmost(e, v);
                          return std::make_shared<const Com>(std::move(c2));
                        }};
      }
      // fv(E) = {}: emit wr(x,[[E]]) or wrR(x,[[E]]) or wrSC(x,[[E]]).
      return WriteStep{c->var, eval_closed(e), c->release, c->nonatomic,
                       c->sc, skip()};
    }

    case ComKind::kRegAssign: {
      const ExprPtr e = fold(resolve_registers(c->expr, regs));
      if (auto pending = next_read(e)) {
        const RegId r = c->reg;
        return ReadStep{pending->var, pending->acquire, pending->nonatomic,
                        pending->sc, [e, r](Value v) {
                          return reg_assign(r, substitute_leftmost(e, v));
                        }};
      }
      return RegWriteStep{c->reg, eval_closed(e), skip()};
    }

    case ComKind::kSwap: {
      // The paper's swap takes a literal value; we additionally permit an
      // expression argument, whose shared reads are evaluated (left to
      // right) before the update is issued.
      const ExprPtr e = fold(resolve_registers(c->expr, regs));
      if (auto pending = next_read(e)) {
        const Com& node = *c;
        return ReadStep{pending->var, pending->acquire, pending->nonatomic,
                        pending->sc, [e, node](Value v) {
                          Com c2 = node;
                          c2.expr = substitute_leftmost(e, v);
                          return std::make_shared<const Com>(std::move(c2));
                        }};
      }
      return UpdateStep{c->var, eval_closed(e), c->captures, c->reg, c->sc,
                        skip()};
    }

    case ComKind::kSeq: {
      // skip ; C --lambda--> C.
      if (is_terminated(c->c1)) return SilentStep{c->c2};
      auto s = step(c->c1, regs);
      assert(s.has_value());
      return seq_wrap(std::move(*s), c->c2);
    }

    case ComKind::kIf: {
      const ExprPtr b = fold(resolve_registers(c->expr, regs));
      if (auto pending = next_read(b)) {
        const ComPtr c1 = c->c1;
        const ComPtr c2 = c->c2;
        return ReadStep{pending->var, pending->acquire, pending->nonatomic,
                        pending->sc, [b, c1, c2](Value v) {
                          return if_then_else(substitute_leftmost(b, v), c1,
                                              c2);
                        }};
      }
      return SilentStep{eval_closed(b) != 0 ? c->c1 : c->c2};
    }

    case ComKind::kWhile:
      // Guard-preserving unfolding (see header comment):
      // while B do C --lambda--> if B then (C ; while B do C) else skip.
      // The back edge is the loop node itself: nodes are immutable.
      return SilentStep{if_then_else(c->expr, seq(c->c1, c), skip())};

    case ComKind::kFence:
      return FenceStep{c->fence, skip()};
  }
  return std::nullopt;
}

namespace {

/// Result of evaluating an expression against a register file without
/// allocating: either the leftmost pending shared read or the value of the
/// (closed) folded expression.
struct PeekEval {
  bool read = false;
  PendingRead pending;
  Value value = 0;
};

/// Mirrors next_read(fold(resolve_registers(e, regs))) for the read case
/// and eval_closed(fold(...)) for the closed case — including fold()'s
/// short-circuit pass-through (`1 && E` folds to E itself, not to a
/// boolean, so the value of the rhs flows through unchanged).
PeekEval peek_eval(const ExprPtr& e, const RegFile& regs) {
  switch (e->kind) {
    case ExprKind::kConst:
      return {false, {}, e->value};
    case ExprKind::kReg:
      return {false, {}, e->reg < regs.size() ? regs[e->reg] : 0};
    case ExprKind::kVar: {
      PeekEval out;
      out.read = true;
      out.pending = {e->var, e->acquire, e->nonatomic, e->sc};
      return out;
    }
    case ExprKind::kUnary: {
      PeekEval l = peek_eval(e->lhs, regs);
      if (l.read) return l;
      l.value = apply_un_op(e->un_op, l.value);
      return l;
    }
    case ExprKind::kBinary: {
      PeekEval l = peek_eval(e->lhs, regs);
      if (l.read) return l;
      if (e->bin_op == BinOp::kAnd) {
        if (l.value == 0) return {false, {}, 0};
        return peek_eval(e->rhs, regs);
      }
      if (e->bin_op == BinOp::kOr) {
        if (l.value != 0) return {false, {}, 1};
        return peek_eval(e->rhs, regs);
      }
      PeekEval r = peek_eval(e->rhs, regs);
      if (r.read) return r;
      r.value = apply_bin_op(e->bin_op, l.value, r.value);
      return r;
    }
  }
  return {};
}

StepPeek peek_read(const PeekEval& ev) {
  StepPeek out;
  out.kind = PeekKind::kRead;
  out.var = ev.pending.var;
  out.acquire = ev.pending.acquire;
  out.nonatomic = ev.pending.nonatomic;
  out.sc = ev.pending.sc;
  return out;
}

}  // namespace

StepPeek peek_step(const ComPtr& c, const RegFile& regs) {
  switch (c->kind) {
    case ComKind::kSkip:
      return {};

    case ComKind::kLabel:
      // Labels are transparent to stepping; label_wrap only rewrites
      // continuations, which a peek does not build.
      return peek_step(c->c1, regs);

    case ComKind::kAssign: {
      const PeekEval ev = peek_eval(c->expr, regs);
      if (ev.read) return peek_read(ev);
      StepPeek out;
      out.kind = PeekKind::kWrite;
      out.var = c->var;
      out.value = ev.value;
      out.release = c->release;
      out.nonatomic = c->nonatomic;
      out.sc = c->sc;
      return out;
    }

    case ComKind::kRegAssign: {
      const PeekEval ev = peek_eval(c->expr, regs);
      if (ev.read) return peek_read(ev);
      StepPeek out;
      out.kind = PeekKind::kRegWrite;
      return out;
    }

    case ComKind::kSwap: {
      const PeekEval ev = peek_eval(c->expr, regs);
      if (ev.read) return peek_read(ev);
      StepPeek out;
      out.kind = PeekKind::kUpdate;
      out.var = c->var;
      out.value = ev.value;
      out.sc = c->sc;
      return out;
    }

    case ComKind::kSeq: {
      if (is_terminated(c->c1)) {
        StepPeek out;
        out.kind = PeekKind::kSilent;
        return out;  // skip-elimination: the Seq node's own silent step
      }
      return peek_step(c->c1, regs);
    }

    case ComKind::kIf: {
      const PeekEval ev = peek_eval(c->expr, regs);
      if (ev.read) return peek_read(ev);
      StepPeek out;
      out.kind = PeekKind::kSilent;
      return out;
    }

    case ComKind::kWhile: {
      StepPeek out;
      out.kind = PeekKind::kSilent;
      out.loop_unfold = true;
      return out;
    }

    case ComKind::kFence: {
      StepPeek out;
      out.kind = PeekKind::kFence;
      out.fence = c->fence;
      return out;
    }
  }
  return {};
}

namespace {

/// What a stutter test reads of a command: its leading label (kNoLabel
/// when none) and whether it has terminated.
struct Shape {
  int lead = kNoLabel;
  bool terminated = false;
};

Shape shape_of(const ComPtr& c) {
  return {leading_label(c, kNoLabel), is_terminated(c)};
}

/// The shape of the continuation step() gives c when that step is silent
/// and no loop unfolding, derived by the rules step() builds it with
/// (seq_wrap, label_rewrap) without building it; nullopt otherwise.
std::optional<Shape> silent_next_shape(const ComPtr& c, const RegFile& regs) {
  switch (c->kind) {
    case ComKind::kLabel: {
      const auto k = silent_next_shape(c->c1, regs);
      if (!k || k->terminated || k->lead != kNoLabel) return k;
      return Shape{c->label, false};  // label_rewrap keeps the label
    }
    case ComKind::kSeq: {
      if (is_terminated(c->c1)) return shape_of(c->c2);
      const auto k = silent_next_shape(c->c1, regs);
      if (!k) return k;
      const Shape rest = shape_of(c->c2);
      return Shape{k->lead != kNoLabel ? k->lead : rest.lead,
                   k->terminated && rest.terminated};
    }
    case ComKind::kIf: {
      const PeekEval ev = peek_eval(c->expr, regs);
      if (ev.read) return std::nullopt;
      return shape_of(ev.value != 0 ? c->c1 : c->c2);
    }
    default:
      return std::nullopt;
  }
}

}  // namespace

bool is_stutter(const ComPtr& c, const RegFile& regs, int done_pc) {
  const auto next = silent_next_shape(c, regs);
  if (!next) return false;
  const Shape now = shape_of(c);
  const auto pc = [done_pc](const Shape& s) {
    return s.lead == kNoLabel ? done_pc : s.lead;
  };
  return pc(now) == pc(*next) && now.terminated == next->terminated;
}

std::string Com::to_string(const c11::VarTable* vars) const {
  switch (kind) {
    case ComKind::kSkip:
      return "skip";
    case ComKind::kAssign: {
      const std::string x =
          vars != nullptr ? vars->name(var) : util::cat("v", var);
      const char* op = sc          ? " :=SC "
                       : release   ? " :=R "
                       : nonatomic ? " :=NA "
                                   : " := ";
      return util::cat(x, op, expr->to_string(vars));
    }
    case ComKind::kRegAssign:
      return util::cat("r", reg, " := ", expr->to_string(vars));
    case ComKind::kSwap: {
      const std::string x =
          vars != nullptr ? vars->name(var) : util::cat("v", var);
      const std::string call = util::cat(x, ".swap(", expr->to_string(vars),
                                         sc ? ")SC" : ")RA");
      return captures ? util::cat("r", reg, " := ", call) : call;
    }
    case ComKind::kSeq:
      return util::cat(c1->to_string(vars), "; ", c2->to_string(vars));
    case ComKind::kIf:
      return util::cat("if ", expr->to_string(vars), " then {",
                       c1->to_string(vars), "} else {", c2->to_string(vars),
                       "}");
    case ComKind::kWhile:
      return util::cat("while ", expr->to_string(vars), " do {",
                       c1->to_string(vars), "}");
    case ComKind::kLabel:
      return util::cat(label, ": ", c1->to_string(vars));
    case ComKind::kFence:
      switch (fence) {
        case FenceMode::kAcquire:
          return "fence_acq";
        case FenceMode::kRelease:
          return "fence_rel";
        case FenceMode::kAcqRel:
          return "fence_ar";
        case FenceMode::kSeqCst:
          return "fence_sc";
      }
      return "fence_sc";
  }
  return "?";
}

std::uint64_t structural_hash(const ComPtr& c) {
  const std::uint64_t cached = c->shash.value.load(std::memory_order_relaxed);
  if (cached != 0) return cached;
  std::uint64_t h = util::mix64(static_cast<std::uint64_t>(c->kind) + 17);
  switch (c->kind) {
    case ComKind::kSkip:
      break;
    case ComKind::kAssign:
      h = util::mix64(h ^ (static_cast<std::uint64_t>(c->var) << 3 |
                           (c->sc ? 4u : 0u) | (c->release ? 2u : 0u) |
                           (c->nonatomic ? 1u : 0u)));
      h = util::mix64(h + structural_hash(c->expr));
      break;
    case ComKind::kRegAssign:
      h = util::mix64(h ^ c->reg);
      h = util::mix64(h + structural_hash(c->expr));
      break;
    case ComKind::kSwap:
      h = util::mix64(h ^ (static_cast<std::uint64_t>(c->var) << 2 |
                           (c->sc ? 2u : 0u) | (c->captures ? 1u : 0u)));
      h = util::mix64(h ^ c->reg);
      h = util::mix64(h + structural_hash(c->expr));
      break;
    case ComKind::kSeq:
      h = util::mix64(h + 0x9e3779b97f4a7c15ull * structural_hash(c->c1));
      h = util::mix64(h + 0xc2b2ae3d27d4eb4full * structural_hash(c->c2));
      break;
    case ComKind::kIf:
      h = util::mix64(h + structural_hash(c->expr));
      h = util::mix64(h + 0x9e3779b97f4a7c15ull * structural_hash(c->c1));
      h = util::mix64(h + 0xc2b2ae3d27d4eb4full * structural_hash(c->c2));
      break;
    case ComKind::kWhile:
      h = util::mix64(h + structural_hash(c->expr));
      h = util::mix64(h + 0x9e3779b97f4a7c15ull * structural_hash(c->c1));
      break;
    case ComKind::kLabel:
      h = util::mix64(h ^ static_cast<std::uint64_t>(c->label));
      h = util::mix64(h + structural_hash(c->c1));
      break;
    case ComKind::kFence:
      h = util::mix64(h ^ (static_cast<std::uint64_t>(c->fence) + 29));
      break;
  }
  if (h == 0) h = 1;  // 0 is the memo's "unset" sentinel
  c->shash.value.store(h, std::memory_order_relaxed);
  return h;
}

}  // namespace rc11::lang
