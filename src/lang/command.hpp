// Commands of the RAR language (Section 2.1) and the uninterpreted
// operational semantics of Figure 2.
//
//   Com ::= skip | x.swap(n)^RA | x := Exp | x :=^R Exp | Com ; Com
//         | if B then Com else Com | while B do Com
//
// Extensions (documented in DESIGN.md):
//  * register assignment `r := Exp` — silent at the memory level; needed
//    for litmus-test observations;
//  * value-capturing swap `r := x.swap(n)^RA` — the paper's RMW rule
//    already reads a value m; capturing it into a register is a
//    straightforward extension (the paper discards it);
//  * label nodes carrying a program-counter value; they realise the
//    auxiliary `pc` function used by the Peterson verification
//    (Section 5.2). A label is *sticky*: `l: C` steps as C, and the label
//    re-wraps the continuation until the labeled statement completes or
//    control reaches a statement with its own label. Thus pc(t) = l for the
//    whole (multi-step) execution of line l — e.g. the pc stays at the
//    busy-wait line while its guard is being evaluated, exactly as in the
//    paper's proof.
//
// The while rule is implemented by guard-preserving unfolding
//   while B do C  --lambda-->  if B then (C ; while B do C) else skip
// which re-evaluates the *original* guard on every iteration. (Read
// literally, the Figure-2 rule `while B do C --a--> while B' do C` replaces
// the guard with its partially evaluated copy and would never re-read it on
// later iterations; the unfolding is the standard intended semantics and
// matches the paper's use of the loop in Algorithm 1, where the guard is
// re-read every spin.)
//
// A command step is deterministic (expressions evaluate left-to-right), so
// the uninterpreted semantics is `step : Com x RegFile -> option Step`.
// Nondeterminism enters only at the program level (thread choice,
// Proposition 2.3) and the memory level (which write is observed,
// Proposition 2.2: any value can be read).
#pragma once

#include <atomic>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "lang/expr.hpp"

namespace rc11::lang {

enum class ComKind : std::uint8_t {
  kSkip,
  kAssign,     ///< x := E  (relaxed)  or  x :=^R E  (release)
  kRegAssign,  ///< r := E  (extension; silent)
  kSwap,       ///< x.swap(n)^RA, optionally capturing the old value
  kSeq,        ///< C1 ; C2
  kIf,         ///< if B then C1 else C2
  kWhile,      ///< while B do C
  kLabel,      ///< `l: C` — pc marker, transparent to stepping
  kFence,      ///< fence(acq|rel|ar|sc) (full-RC11 extension)
};

/// Fence strength for ComKind::kFence (full-RC11 extension).
enum class FenceMode : std::uint8_t { kAcquire, kRelease, kAcqRel, kSeqCst };

class Com;
using ComPtr = std::shared_ptr<const Com>;

/// Copyable relaxed-atomic memo slot (0 = unset). Command nodes are
/// immutable and shared across explorer threads, so the lazily computed
/// structural hash is published with an atomic store; copies restart from
/// whatever was cached.
struct HashMemo {
  std::atomic<std::uint64_t> value{0};
  HashMemo() = default;
  HashMemo(const HashMemo& o)
      : value(o.value.load(std::memory_order_relaxed)) {}
  HashMemo& operator=(const HashMemo& o) {
    value.store(o.value.load(std::memory_order_relaxed),
                std::memory_order_relaxed);
    return *this;
  }
};

/// Immutable command node; build via the factories below.
class Com {
 public:
  ComKind kind = ComKind::kSkip;

  VarId var = 0;           // kAssign, kSwap
  bool release = false;    // kAssign: x :=^R E
  bool nonatomic = false;  // kAssign: x :=^NA E (extension)
  bool sc = false;         // kAssign: x :=^SC E / kSwap: x.swap(n)^SC
  FenceMode fence = FenceMode::kSeqCst;  // kFence
  RegId reg = 0;          // kRegAssign, kSwap capture target
  bool captures = false;  // kSwap: store old value into `reg`
  ExprPtr expr;           // kAssign/kRegAssign RHS, kSwap new value,
                          // kIf/kWhile guard
  ComPtr c1;              // kSeq first, kIf then, kWhile body, kLabel body
  ComPtr c2;              // kSeq second, kIf else
  int label = 0;          // kLabel

  /// structural_hash memo — configurations are fingerprinted once per
  /// explored transition, and their continuations share almost all nodes.
  mutable HashMemo shash;

  [[nodiscard]] std::string to_string(
      const c11::VarTable* vars = nullptr) const;
};

// --- Factories --------------------------------------------------------------

[[nodiscard]] ComPtr skip();
[[nodiscard]] ComPtr assign(VarId x, ExprPtr e);        ///< x := E
[[nodiscard]] ComPtr assign_rel(VarId x, ExprPtr e);    ///< x :=^R E
[[nodiscard]] ComPtr assign_na(VarId x, ExprPtr e);     ///< x :=^NA E
[[nodiscard]] ComPtr assign_sc(VarId x, ExprPtr e);     ///< x :=^SC E
[[nodiscard]] ComPtr reg_assign(RegId r, ExprPtr e);    ///< r := E
[[nodiscard]] ComPtr swap(VarId x, ExprPtr n);          ///< x.swap(n)^RA
[[nodiscard]] ComPtr swap_sc(VarId x, ExprPtr n);       ///< x.swap(n)^SC
[[nodiscard]] ComPtr swap_into(RegId r, VarId x, ExprPtr n);
[[nodiscard]] ComPtr swap_sc_into(RegId r, VarId x, ExprPtr n);
[[nodiscard]] ComPtr fence(FenceMode mode);             ///< fence(mode)
[[nodiscard]] ComPtr seq(ComPtr c1, ComPtr c2);
[[nodiscard]] ComPtr seq(const std::vector<ComPtr>& cs);
[[nodiscard]] ComPtr if_then_else(ExprPtr b, ComPtr c1, ComPtr c2);
[[nodiscard]] ComPtr while_do(ExprPtr b, ComPtr c);
[[nodiscard]] ComPtr labeled(int label, ComPtr c);

// --- Uninterpreted step relation (Figure 2) -----------------------------------

/// Register file of one thread; registers default to 0.
using RegFile = std::vector<Value>;

/// A silent (lambda) step: guard resolution, skip elimination, while
/// unfolding, label consumption.
struct SilentStep {
  ComPtr next;
};

/// wr(x,n) / wrR(x,n). `nonatomic` marks the extension's NA writes, which
/// behave as relaxed at the memory level but participate in race detection
/// (c11/races.hpp).
struct WriteStep {
  VarId var = 0;
  Value value = 0;
  bool release = false;
  bool nonatomic = false;
  bool sc = false;
  ComPtr next;
};

/// rd(x,_) / rdA(x,_): the continuation depends on the value read, which the
/// memory model chooses (Proposition 2.2: the uninterpreted semantics allows
/// any value).
struct ReadStep {
  VarId var = 0;
  bool acquire = false;
  bool nonatomic = false;
  bool sc = false;
  std::function<ComPtr(Value)> next;
};

/// updRA(x,_,n) / updSC(x,_,n): continuation may capture the value read
/// into a register.
struct UpdateStep {
  VarId var = 0;
  Value new_value = 0;
  bool captures = false;
  RegId capture_reg = 0;
  bool sc = false;
  ComPtr next;
};

/// Register write: silent at the memory level but mutates the register file.
struct RegWriteStep {
  RegId reg = 0;
  Value value = 0;
  ComPtr next;
};

/// Memory fence (full-RC11 extension): no location, no value.
struct FenceStep {
  FenceMode mode = FenceMode::kSeqCst;
  ComPtr next;
};

using Step = std::variant<SilentStep, WriteStep, ReadStep, UpdateStep,
                          RegWriteStep, FenceStep>;

/// The single enabled step of C (nullopt iff C is skip, i.e. terminated).
[[nodiscard]] std::optional<Step> step(const ComPtr& c, const RegFile& regs);

// --- Allocation-free step peek ----------------------------------------------
//
// step() materialises continuations: it folds a register-resolved copy of
// the expression, rebuilds the Seq spine via seq_wrap, and wraps ReadStep
// continuations in heap-allocated std::functions. The DPOR engines call it
// once per thread per explored node just to learn *which* transition is
// enabled — the continuations are discarded. peek_step computes the same
// classification (kind, variable, value, access-mode flags) by evaluating
// in place, allocating nothing. It must stay in lock-step with step():
// test_lang cross-checks the two on every continuation the catalogue
// reaches.

enum class PeekKind : std::uint8_t {
  kNone,      ///< terminated (step() returns nullopt)
  kSilent,    ///< SilentStep
  kRegWrite,  ///< RegWriteStep
  kRead,      ///< ReadStep
  kWrite,     ///< WriteStep
  kUpdate,    ///< UpdateStep
  kFence,     ///< FenceStep
};

struct StepPeek {
  PeekKind kind = PeekKind::kNone;
  bool loop_unfold = false;  ///< kSilent: the step is a while-guard unfold
  VarId var = 0;             ///< kRead/kWrite/kUpdate
  Value value = 0;           ///< kWrite value / kUpdate new value
  bool acquire = false;      ///< kRead
  bool release = false;      ///< kWrite
  bool nonatomic = false;    ///< kRead/kWrite
  bool sc = false;           ///< kRead/kWrite/kUpdate
  FenceMode fence = FenceMode::kSeqCst;  ///< kFence
};

[[nodiscard]] StepPeek peek_step(const ComPtr& c, const RegFile& regs);

/// True iff C's step is a *stutter*: a silent step, not a loop unfolding,
/// whose continuation keeps C's pc (leading_label with `done_pc`) and C's
/// termination. Such a step changes nothing an invariant over pcs,
/// registers and memory can read. Decided like peek_step, without building
/// the continuation; test_lang checks it against step() wherever the
/// peek_step cross-check walks.
[[nodiscard]] bool is_stutter(const ComPtr& c, const RegFile& regs,
                              int done_pc = 0);

/// True iff the command is (modulo labels) skip.
[[nodiscard]] bool is_terminated(const ComPtr& c);

/// The pc of a command: the leading label of its continuation spine, or
/// `done_pc` when none (e.g. the command is skip or unlabeled).
[[nodiscard]] int leading_label(const ComPtr& c, int done_pc = 0);

/// True iff the command's continuation spine starts with a label.
[[nodiscard]] bool has_leading_label(const ComPtr& c);

/// Deterministic structural hash of the continuation: equal ASTs hash
/// equal, without building the to_string serialisation (used by
/// interp::Config::fingerprint for state-space deduplication).
[[nodiscard]] std::uint64_t structural_hash(const ComPtr& c);

}  // namespace rc11::lang
