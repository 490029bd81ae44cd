// Tests for the litmus text-format parser.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "lang/parser.hpp"

namespace rc11::lang {
namespace {

/// `s` repeated n times.
std::string repeat(const std::string& s, int n) {
  std::string out;
  out.reserve(s.size() * static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) out += s;
  return out;
}

/// Expects `src` to be rejected for its nesting depth with a ParseError
/// located on `line`. Each input below is nested 100,000 deep, which
/// overflows the stack of a parser without a depth bound.
void expect_too_deep(const std::string& src, int line) {
  try {
    (void)parse_litmus(src);
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("line " + std::to_string(line) + ","),
              std::string::npos)
        << what;
    EXPECT_NE(what.find("nested deeper than"), std::string::npos) << what;
  }
}

constexpr int kDeep = 100000;
const std::string kHead = "litmus Deep\nvar x = 0\nthread 1 {\n";

TEST(Parser, ParsesMinimalTest) {
  const auto p = parse_litmus(R"(litmus Mini
var x = 0
thread 1 { x := 1; }
)");
  EXPECT_EQ(p.name, "Mini");
  EXPECT_EQ(p.program.thread_count(), 1u);
  EXPECT_EQ(p.mode, CondMode::kNone);
  ASSERT_EQ(p.program.initial_values().size(), 1u);
  EXPECT_EQ(p.program.initial_values()[0].second, 0);
}

TEST(Parser, DistinguishesVariablesFromRegisters) {
  const auto p = parse_litmus(R"(litmus Regs
var x = 0
thread 1 { r0 := x; x := r0 + 1; }
)");
  EXPECT_TRUE(p.program.vars().contains("x"));
  EXPECT_FALSE(p.program.vars().contains("r0"));
  EXPECT_TRUE(p.program.find_reg("r0").has_value());
}

TEST(Parser, ReleaseAndAcquireAnnotations) {
  const auto p = parse_litmus(R"(litmus Ann
var f = 0
thread 1 { f :=R 1; }
thread 2 { r0 := f@A; }
exists (2:r0 == 1)
)");
  EXPECT_EQ(p.mode, CondMode::kExists);
  // Thread 1 body is a releasing assignment.
  const ComPtr c1 = p.program.thread(1);
  ASSERT_EQ(c1->kind, ComKind::kAssign);
  EXPECT_TRUE(c1->release);
  // Thread 2's RHS is an acquiring read.
  const ComPtr c2 = p.program.thread(2);
  ASSERT_EQ(c2->kind, ComKind::kRegAssign);
  EXPECT_EQ(c2->expr->kind, ExprKind::kVar);
  EXPECT_TRUE(c2->expr->acquire);
}

TEST(Parser, SwapForms) {
  const auto p = parse_litmus(R"(litmus Swaps
var t = 1
thread 1 { t.swap(2); }
thread 2 { r0 := t.swap(1); }
)");
  EXPECT_EQ(p.program.thread(1)->kind, ComKind::kSwap);
  EXPECT_FALSE(p.program.thread(1)->captures);
  EXPECT_EQ(p.program.thread(2)->kind, ComKind::kSwap);
  EXPECT_TRUE(p.program.thread(2)->captures);
}

TEST(Parser, ControlFlowAndLabels) {
  const auto p = parse_litmus(R"(litmus Ctrl
var x = 0
var y = 0
thread 1 {
  2: x := 1;
  4: while (y@A == 0) { skip; }
  5: if (x == 1) { y := 2; } else { y := 3; }
}
)");
  const ComPtr c = p.program.thread(1);
  EXPECT_EQ(leading_label(c), 2);
}

TEST(Parser, ConditionForms) {
  const auto p = parse_litmus(R"(litmus Conds
var x = 0
thread 1 { r0 := x; }
exists (1:r0 == 0 && (x != 1 || !(1:r0 >= 2)))
)");
  ASSERT_NE(p.condition, nullptr);
  EXPECT_EQ(p.condition->kind, CondKind::kAnd);
}

TEST(Parser, ForbiddenMode) {
  const auto p = parse_litmus(R"(litmus F
var x = 0
thread 1 { r0 := x; }
forbidden (1:r0 == 1)
)");
  EXPECT_EQ(p.mode, CondMode::kForbidden);
}

TEST(Parser, NegativeConditionValues) {
  const auto p = parse_litmus(R"(litmus Neg
var x = 0
thread 1 { r0 := x; }
exists (1:r0 == -1)
)");
  EXPECT_EQ(p.condition->value, -1);
}

TEST(Parser, CommentsAreSkipped) {
  const auto p = parse_litmus(R"(litmus C
# hash comment
var x = 0   // line comment
thread 1 { x := 1; }  # trailing
)");
  EXPECT_EQ(p.program.thread_count(), 1u);
}

TEST(Parser, ErrorsCarryLocation) {
  try {
    (void)parse_litmus("litmus X\nvar x = 0\nthread 1 { x ::= 1; }");
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos);
  }
}

TEST(Parser, RejectsNonConsecutiveThreads) {
  EXPECT_THROW((void)parse_litmus(R"(litmus T
var x = 0
thread 2 { x := 1; }
)"),
               ParseError);
}

TEST(Parser, RejectsReleaseOnRegister) {
  EXPECT_THROW((void)parse_litmus(R"(litmus R
var x = 0
thread 1 { r0 :=R x; }
)"),
               ParseError);
}

TEST(Parser, RejectsAcquireOnRegister) {
  EXPECT_THROW((void)parse_litmus(R"(litmus A
var x = 0
thread 1 { r0 := x; r1 := r0@A; }
)"),
               ParseError);
}

TEST(Parser, RejectsSwapOnRegister) {
  EXPECT_THROW((void)parse_litmus(R"(litmus S
var x = 0
thread 1 { r0.swap(1); }
)"),
               ParseError);
}

TEST(Parser, RejectsUnknownConditionNames) {
  EXPECT_THROW((void)parse_litmus(R"(litmus U
var x = 0
thread 1 { x := 1; }
exists (y == 0)
)"),
               ParseError);
  EXPECT_THROW((void)parse_litmus(R"(litmus U2
var x = 0
thread 1 { x := 1; }
exists (1:r9 == 0)
)"),
               ParseError);
}

TEST(Parser, OperatorPrecedence) {
  // 1 + 2 * 3 == 7 must parse as (1 + (2*3)) == 7.
  const auto p = parse_litmus(R"(litmus P
var x = 0
thread 1 { r0 := 1 + 2 * 3; }
)");
  const ComPtr c = p.program.thread(1);
  ASSERT_EQ(c->kind, ComKind::kRegAssign);
  EXPECT_EQ(eval_closed(c->expr), 7);
}

TEST(Parser, RejectsDeeplyParenthesizedExpression) {
  expect_too_deep(kHead + "r0 := " + repeat("(", kDeep) + "1" +
                      repeat(")", kDeep) + ";\n}\n",
                  4);
}

TEST(Parser, RejectsLongNotChain) {
  expect_too_deep(kHead + "r0 := " + repeat("!", kDeep) + "x;\n}\n", 4);
}

TEST(Parser, RejectsLongMinusChain) {
  expect_too_deep(kHead + "r0 := " + repeat("-", kDeep) + "x;\n}\n", 4);
}

TEST(Parser, RejectsDeeplyNestedIf) {
  expect_too_deep(kHead + repeat("if (x == 0) {\n", kDeep) + "skip;" +
                      repeat("}", kDeep) + "\n}\n",
                  131);
}

TEST(Parser, RejectsDeeplyNestedWhile) {
  expect_too_deep(kHead + repeat("while (x == 1) {\n", kDeep) + "skip;" +
                      repeat("}", kDeep) + "\n}\n",
                  131);
}

TEST(Parser, RejectsDeeplyNestedCondition) {
  expect_too_deep(kHead + "x := 1;\n}\nexists (" + repeat("(", kDeep) +
                      "x == 1" + repeat(")", kDeep) + ")\n",
                  6);
}

TEST(Parser, AcceptsNestingBelowTheBound) {
  const auto p = parse_litmus(kHead + "r0 := " + repeat("(", 60) + "x" +
                              repeat(")", 60) + ";\n" +
                              repeat("if (x == 0) {\n", 60) + "skip;" +
                              repeat("}", 60) + "\n}\nexists (" +
                              repeat("!(", 40) + "x == 1" + repeat(")", 40) +
                              ")\n");
  EXPECT_EQ(p.program.thread_count(), 1u);
}

/// Expects `src` to be rejected for an integer literal that does not fit
/// a 64-bit value, with a ParseError located on `line`.
void expect_too_large(const std::string& src, int line) {
  try {
    (void)parse_litmus(src);
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("line " + std::to_string(line) + ","),
              std::string::npos)
        << what;
    EXPECT_NE(what.find("does not fit a 64-bit value"), std::string::npos)
        << what;
  }
}

constexpr const char* kHuge = "99999999999999999999";  // 20 digits

TEST(Parser, RejectsHugeStoredValue) {
  expect_too_large(std::string("litmus H\nvar x = 0\nthread 1 {\n  x := ") +
                       kHuge + ";\n}\n",
                   4);
}

TEST(Parser, RejectsHugeInitialValue) {
  expect_too_large(std::string("litmus H\nvar x = ") + kHuge +
                       "\nthread 1 { x := 1; }\n",
                   2);
}

TEST(Parser, RejectsHugeConditionConstant) {
  expect_too_large(std::string("litmus H\nvar x = 0\nthread 1 { x := 1; }\n"
                               "exists (x == ") +
                       kHuge + ")\n",
                   4);
}

TEST(Parser, AcceptsTheLargestValue) {
  const auto p = parse_litmus(R"(litmus Max
var x = 9223372036854775807
thread 1 { x := 9223372036854775807; }
exists (x == 9223372036854775807)
)");
  ASSERT_EQ(p.program.initial_values().size(), 1u);
  EXPECT_EQ(p.program.initial_values()[0].second, INT64_MAX);
  const ComPtr c = p.program.thread(1);
  ASSERT_EQ(c->kind, ComKind::kAssign);
  EXPECT_EQ(eval_closed(c->expr), INT64_MAX);
}

TEST(Parser, RoundTripsProgramToString) {
  const auto p = parse_litmus(R"(litmus RT
var x = 0
thread 1 { x := 1; r0 := x; }
)");
  const std::string s = p.program.to_string();
  EXPECT_NE(s.find("var x = 0"), std::string::npos);
  EXPECT_NE(s.find("thread 1"), std::string::npos);
}

}  // namespace
}  // namespace rc11::lang
