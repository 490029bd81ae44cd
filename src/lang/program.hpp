// Programs: Prog : T -> Com (Section 2.2), plus the symbol tables and
// initial values needed to run them, and final-state conditions for litmus
// tests.
//
// Threads are numbered 1..thread_count() (thread 0 is the initialising
// thread of the memory model and runs no command).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "lang/command.hpp"

namespace rc11::lang {

using c11::ThreadId;

class Program {
 public:
  /// Declares a shared variable with its initial value; returns its id.
  VarId declare_var(const std::string& name, Value initial);

  /// Declares (or finds) a register; registers are per-thread storage but
  /// share one global name space.
  RegId declare_reg(const std::string& name);

  /// Appends a thread; returns its ThreadId (1-based).
  ThreadId add_thread(ComPtr body);

  [[nodiscard]] std::size_t thread_count() const { return threads_.size(); }

  /// Body of thread t (1-based).
  [[nodiscard]] const ComPtr& thread(ThreadId t) const {
    return threads_.at(t - 1);
  }

  [[nodiscard]] const c11::VarTable& vars() const { return vars_; }
  [[nodiscard]] c11::VarTable& vars() { return vars_; }

  [[nodiscard]] std::size_t reg_count() const { return reg_names_.size(); }
  [[nodiscard]] const std::string& reg_name(RegId r) const {
    return reg_names_.at(r);
  }
  [[nodiscard]] std::optional<RegId> find_reg(const std::string& name) const;

  /// (variable, initial value) pairs, in declaration order.
  [[nodiscard]] const std::vector<std::pair<VarId, Value>>& initial_values()
      const {
    return inits_;
  }

  [[nodiscard]] std::string to_string() const;

 private:
  c11::VarTable vars_;
  std::vector<std::string> reg_names_;
  std::vector<std::pair<VarId, Value>> inits_;
  std::vector<ComPtr> threads_;
};

// --- SC feature scan --------------------------------------------------------

/// Static summary of the full-RC11 features a program uses. The interpreter
/// consults it once per exploration: programs with any SC feature need psc
/// filtering of candidate steps; the independence relation additionally
/// couples everything to SC fences.
struct ScFeatures {
  bool has_sc = false;        ///< any SC access, SC swap, or SC fence
  bool has_sc_fence = false;  ///< an SC fence specifically
  bool has_fence = false;     ///< any fence, of any strength
};

[[nodiscard]] ScFeatures scan_sc_features(const ComPtr& c);
[[nodiscard]] ScFeatures scan_sc_features(const Program& p);

// --- Final-state conditions (litmus `exists` / `forbidden` clauses) ---------

enum class CondKind : std::uint8_t {
  kTrue,
  kRegCmp,  ///< t:r (op) value — final register value of thread t
  kVarCmp,  ///< x (op) value   — wrval of the mo-last write to x
  kNot,
  kAnd,
  kOr,
};

class Cond;
using CondPtr = std::shared_ptr<const Cond>;

class Cond {
 public:
  CondKind kind = CondKind::kTrue;
  ThreadId thread = 0;  // kRegCmp
  RegId reg = 0;        // kRegCmp
  VarId var = 0;        // kVarCmp
  BinOp op = BinOp::kEq;
  Value value = 0;
  CondPtr lhs, rhs;

  [[nodiscard]] std::string to_string(const Program* p = nullptr) const;
};

[[nodiscard]] CondPtr cond_true();
[[nodiscard]] CondPtr cond_reg(ThreadId t, RegId r, BinOp op, Value v);
[[nodiscard]] CondPtr cond_var(VarId x, BinOp op, Value v);
[[nodiscard]] CondPtr cond_not(CondPtr c);
[[nodiscard]] CondPtr cond_and(CondPtr a, CondPtr b);
[[nodiscard]] CondPtr cond_or(CondPtr a, CondPtr b);

}  // namespace rc11::lang
