#include "interp/preexec.hpp"

#include <algorithm>
#include <set>

namespace rc11::interp {

namespace {

void collect_expr_constants(const lang::ExprPtr& e, std::set<Value>& out) {
  if (e == nullptr) return;
  switch (e->kind) {
    case lang::ExprKind::kConst:
      out.insert(e->value);
      return;
    case lang::ExprKind::kVar:
    case lang::ExprKind::kReg:
      return;
    case lang::ExprKind::kUnary:
      collect_expr_constants(e->lhs, out);
      return;
    case lang::ExprKind::kBinary:
      collect_expr_constants(e->lhs, out);
      collect_expr_constants(e->rhs, out);
      return;
  }
}

void collect_com_constants(const lang::ComPtr& c, std::set<Value>& out) {
  if (c == nullptr) return;
  collect_expr_constants(c->expr, out);
  collect_com_constants(c->c1, out);
  collect_com_constants(c->c2, out);
}

}  // namespace

std::vector<Value> value_domain(const Program& p) {
  std::set<Value> vals{0, 1};
  for (auto [var, init] : p.initial_values()) {
    (void)var;
    vals.insert(init);
  }
  for (ThreadId t = 1; t <= p.thread_count(); ++t) {
    collect_com_constants(p.thread(t), vals);
  }
  return {vals.begin(), vals.end()};
}

namespace {

void collect_bin_ops(const lang::ExprPtr& e, std::set<lang::BinOp>& out) {
  if (e == nullptr) return;
  if (e->kind == lang::ExprKind::kBinary) out.insert(e->bin_op);
  if (e->lhs) collect_bin_ops(e->lhs, out);
  if (e->rhs) collect_bin_ops(e->rhs, out);
}

void collect_com_bin_ops(const lang::ComPtr& c, std::set<lang::BinOp>& out) {
  if (c == nullptr) return;
  collect_bin_ops(c->expr, out);
  if (c->c1) collect_com_bin_ops(c->c1, out);
  if (c->c2) collect_com_bin_ops(c->c2, out);
}

}  // namespace

std::vector<Value> widen_domain(const Program& p, std::vector<Value> domain,
                                int rounds) {
  std::set<lang::BinOp> arith;
  for (ThreadId t = 1; t <= p.thread_count(); ++t) {
    collect_com_bin_ops(p.thread(t), arith);
  }
  const bool add = arith.count(lang::BinOp::kAdd) != 0;
  const bool sub = arith.count(lang::BinOp::kSub) != 0;
  const bool mul = arith.count(lang::BinOp::kMul) != 0;

  std::set<Value> vals(domain.begin(), domain.end());
  for (int r = 0; r < rounds; ++r) {
    std::set<Value> next = vals;
    for (Value a : vals) {
      for (Value b : vals) {
        if (add) next.insert(a + b);
        if (sub) next.insert(a - b);
        if (mul) next.insert(a * b);
      }
    }
    if (next == vals) break;
    vals = std::move(next);
  }
  return {vals.begin(), vals.end()};
}

std::vector<ConfigStep> pe_successors(const Config& c,
                                      const std::vector<Value>& domain,
                                      const StepOptions& opts) {
  std::vector<ConfigStep> out;

  for (ThreadId t = 1; t <= c.thread_count(); ++t) {
    auto s = lang::step(c.cont[t - 1], c.regs[t - 1]);
    if (!s) continue;

    auto push = [&](ConfigStep step) { out.push_back(std::move(step)); };

    auto base = [&](ComPtr next) {
      ConfigStep step;
      step.next = c;
      step.next.cont[t - 1] = std::move(next);
      // Direct continuation surgery: the copied config may no longer be in
      // tau-normal form (and the pre-execution engine never drains it).
      step.next.tau_normal = TauCompress::kEveryStep;
      step.thread = t;
      return step;
    };

    if (auto* sil = std::get_if<lang::SilentStep>(&*s)) {
      const bool is_unfold = [&] {
        const lang::ComPtr& cur = c.cont[t - 1];
        lang::ComPtr probe = cur;
        while (probe->kind == lang::ComKind::kLabel ||
               (probe->kind == lang::ComKind::kSeq &&
                !lang::is_terminated(probe->c1))) {
          probe = probe->c1;
        }
        return probe->kind == lang::ComKind::kWhile;
      }();
      if (is_unfold && opts.loop_bound >= 0 &&
          c.unfoldings[t - 1] >= opts.loop_bound) {
        continue;
      }
      ConfigStep step = base(sil->next);
      if (is_unfold) {
        ++step.next.unfoldings[t - 1];
        step.loop_unfold = true;
      }
      push(std::move(step));
      continue;
    }

    if (auto* rw = std::get_if<lang::RegWriteStep>(&*s)) {
      ConfigStep step = base(rw->next);
      auto& file = step.next.regs[t - 1];
      if (rw->reg >= file.size()) file.resize(rw->reg + 1, 0);
      file[rw->reg] = rw->value;
      push(std::move(step));
      continue;
    }

    if (auto* fe = std::get_if<lang::FenceStep>(&*s)) {
      ConfigStep step = base(fe->next);
      const c11::Action a =
          fe->mode == lang::FenceMode::kAcquire   ? c11::Action::fence_acq()
          : fe->mode == lang::FenceMode::kRelease ? c11::Action::fence_rel()
          : fe->mode == lang::FenceMode::kAcqRel  ? c11::Action::fence_ar()
                                                  : c11::Action::fence_sc();
      step.event = step.next.exec.add_event(t, a);
      step.silent = false;
      step.action = a;
      push(std::move(step));
      continue;
    }

    if (auto* rd = std::get_if<lang::ReadStep>(&*s)) {
      for (Value v : domain) {
        ConfigStep step = base(rd->next(v));
        const c11::Action a =
            rd->sc          ? c11::Action::rd_sc(rd->var, v)
            : rd->nonatomic ? c11::Action::rd_na(rd->var, v)
            : rd->acquire   ? c11::Action::rd_acq(rd->var, v)
                            : c11::Action::rd(rd->var, v);
        step.event = step.next.exec.add_event(t, a);
        step.silent = false;
        step.action = a;
        push(std::move(step));
      }
      continue;
    }

    if (auto* wr = std::get_if<lang::WriteStep>(&*s)) {
      ConfigStep step = base(wr->next);
      const c11::Action a =
          wr->sc          ? c11::Action::wr_sc(wr->var, wr->value)
          : wr->nonatomic ? c11::Action::wr_na(wr->var, wr->value)
          : wr->release   ? c11::Action::wr_rel(wr->var, wr->value)
                          : c11::Action::wr(wr->var, wr->value);
      step.event = step.next.exec.add_event(t, a);
      step.silent = false;
      step.action = a;
      push(std::move(step));
      continue;
    }

    auto* up = std::get_if<lang::UpdateStep>(&*s);
    for (Value v : domain) {
      ConfigStep step = base(up->next);
      const c11::Action a =
          up->sc ? c11::Action::upd_sc(up->var, v, up->new_value)
                 : c11::Action::upd(up->var, v, up->new_value);
      step.event = step.next.exec.add_event(t, a);
      step.silent = false;
      step.action = a;
      if (up->captures) {
        auto& file = step.next.regs[t - 1];
        if (up->capture_reg >= file.size()) {
          file.resize(up->capture_reg + 1, 0);
        }
        file[up->capture_reg] = v;
      }
      push(std::move(step));
    }
  }
  return out;
}

}  // namespace rc11::interp
