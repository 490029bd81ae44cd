// Unit tests for the herd-style .litmus importer (litmus/import.hpp):
// malformed sources are rejected with line-numbered diagnostics, the
// translation hits the full internal access-mode surface, and
// pretty-print -> re-import round trips are exact (identical transpiled
// source, equal initial-configuration fingerprints of the re-parsed
// programs).
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "interp/config.hpp"
#include "lang/parser.hpp"
#include "litmus/import.hpp"

namespace rc11 {
namespace {

using litmus::Expectation;
using litmus::import_litmus;
using litmus::ImportedTest;
using litmus::ImportError;

/// Returns the diagnostic of a failing import ("" if it succeeded).
std::string import_error(const std::string& src) {
  try {
    (void)import_litmus(src, "test.litmus");
  } catch (const ImportError& e) {
    return e.what();
  }
  return "";
}

// --- Diagnostics -------------------------------------------------------------

TEST(LitmusImport, RejectsMissingHeader) {
  const std::string err = import_error("{ x = 0; }\nP0 { x = 1; }\n");
  EXPECT_NE(err.find("test.litmus:1:"), std::string::npos) << err;
  EXPECT_NE(err.find("arch"), std::string::npos) << err;
}

TEST(LitmusImport, RejectsUnsupportedArch) {
  const std::string err = import_error("X86 SB\n{ x = 0; }\n");
  EXPECT_NE(err.find("test.litmus:1:"), std::string::npos) << err;
  EXPECT_NE(err.find("unsupported arch"), std::string::npos) << err;
}

TEST(LitmusImport, RejectsBadStoreOrderWithLineNumber) {
  const std::string err = import_error(
      "C t\n"
      "{ x = 0; }\n"
      "P0 {\n"
      "  atomic_store_explicit(x, 1, memory_order_acquire);\n"
      "}\n"
      "exists (true)\n");
  EXPECT_NE(err.find("test.litmus:4:"), std::string::npos) << err;
  EXPECT_NE(err.find("not valid for a store"), std::string::npos) << err;
}

TEST(LitmusImport, RejectsUnknownMemoryOrder) {
  const std::string err = import_error(
      "C t\n{ x = 0; }\nP0 {\n  atomic_thread_fence(memory_order_foo);\n}\n"
      "exists (true)\n");
  EXPECT_NE(err.find("test.litmus:4:"), std::string::npos) << err;
  EXPECT_NE(err.find("unknown memory order"), std::string::npos) << err;
}

TEST(LitmusImport, RejectsThreadsOutOfOrder) {
  const std::string err = import_error(
      "C t\n{ x = 0; }\nP0 { x = 1; }\nP2 { x = 2; }\nexists (true)\n");
  EXPECT_NE(err.find("test.litmus:4:"), std::string::npos) << err;
  EXPECT_NE(err.find("out of order"), std::string::npos) << err;
}

TEST(LitmusImport, RejectsDuplicateInit) {
  const std::string err = import_error("C t\n{ x = 0;\n  x = 1; }\n");
  EXPECT_NE(err.find("test.litmus:3:"), std::string::npos) << err;
  EXPECT_NE(err.find("duplicate"), std::string::npos) << err;
}

TEST(LitmusImport, RejectsConditionOnUnassignedRegister) {
  const std::string err = import_error(
      "C t\n{ x = 0; }\nP0 { x = 1; }\n"
      "exists (0:r9 = 1)\n");
  EXPECT_NE(err.find("test.litmus:4:"), std::string::npos) << err;
  EXPECT_NE(err.find("never assigns"), std::string::npos) << err;
}

TEST(LitmusImport, RejectsConditionOnMissingThread) {
  const std::string err = import_error(
      "C t\n{ x = 0; }\n"
      "P0 { r0 = atomic_load_explicit(x, memory_order_relaxed); }\n"
      "exists (3:r0 = 1)\n");
  EXPECT_NE(err.find("test.litmus:4:"), std::string::npos) << err;
  EXPECT_NE(err.find("thread 3"), std::string::npos) << err;
}

TEST(LitmusImport, RejectsSharedVariableAsStoredValue) {
  const std::string err = import_error(
      "C t\n{ x = 0; y = 0; }\n"
      "P0 { atomic_store_explicit(x, y, memory_order_relaxed); }\n"
      "exists (true)\n");
  EXPECT_NE(err.find("test.litmus:3:"), std::string::npos) << err;
  EXPECT_NE(err.find("shared variable"), std::string::npos) << err;
}

TEST(LitmusImport, RejectsUnterminatedComment) {
  const std::string err = import_error("C t\n{ x = 0; }\n(* dangling\n");
  EXPECT_NE(err.find("test.litmus:3:"), std::string::npos) << err;
  EXPECT_NE(err.find("unterminated"), std::string::npos) << err;
}

TEST(LitmusImport, RejectsTrailingGarbage) {
  const std::string err = import_error(
      "C t\n{ x = 0; }\nP0 { x = 1; }\nexists (true)\njunk\n");
  EXPECT_NE(err.find("test.litmus:5:"), std::string::npos) << err;
  EXPECT_NE(err.find("trailing"), std::string::npos) << err;
}

/// A one-thread test whose exists clause is `cond`.
std::string with_condition(const std::string& cond) {
  return "C deep\n{ x = 0; }\nP0 (atomic_int* x) {\n"
         "  atomic_store_explicit(x, 1, memory_order_relaxed);\n}\n"
         "exists (" +
         cond + ")\n";
}

std::string repeat(const std::string& s, int n) {
  std::string out;
  for (int i = 0; i < n; ++i) out += s;
  return out;
}

// Each condition below is nested 100,000 deep, which overflows the stack
// of an importer without a depth bound.

TEST(LitmusImport, RejectsDeeplyParenthesizedCondition) {
  const std::string err = import_error(
      with_condition(repeat("(", 100000) + "x=1" + repeat(")", 100000)));
  EXPECT_NE(err.find("test.litmus:6:"), std::string::npos) << err;
  EXPECT_NE(err.find("nested deeper than"), std::string::npos) << err;
}

TEST(LitmusImport, RejectsLongNegationChain) {
  const std::string err =
      import_error(with_condition(repeat("~", 100000) + "x=1"));
  EXPECT_NE(err.find("test.litmus:6:"), std::string::npos) << err;
  EXPECT_NE(err.find("nested deeper than"), std::string::npos) << err;
}

TEST(LitmusImport, RejectsLongDisjunctionChain) {
  // Not recursive in the parser, but it builds a condition tree 100,000
  // deep that the renderers recurse over.
  const std::string err =
      import_error(with_condition("x=1" + repeat(" \\/ x=1", 100000)));
  EXPECT_NE(err.find("test.litmus:6:"), std::string::npos) << err;
  EXPECT_NE(err.find("nested deeper than"), std::string::npos) << err;
}

TEST(LitmusImport, AcceptsNestingBelowTheBound) {
  const ImportedTest t = import_litmus(
      with_condition(repeat("~(", 40) + "x=1" + repeat(")", 40) +
                     repeat(" /\\ x=1", 30)),
      "test.litmus");
  EXPECT_NO_THROW((void)lang::parse_litmus(t.source));
}

// --- Integer literals that do not fit a 64-bit value --------------------------

constexpr const char* kHuge = "99999999999999999999";  // 20 digits

std::string with_values(const std::string& init, const std::string& stored,
                        const std::string& cond) {
  return "C big\n"
         "{ x = " + init + "; }\n"
         "P0 (atomic_int* x) {\n"
         "  atomic_store_explicit(x, " + stored + ", memory_order_relaxed);\n"
         "}\n"
         "exists (x=" + cond + ")\n";
}

void expect_too_large(const std::string& err, int line) {
  EXPECT_NE(err.find("test.litmus:" + std::to_string(line) + ":"),
            std::string::npos)
      << err;
  EXPECT_NE(err.find("does not fit a 64-bit value"), std::string::npos)
      << err;
}

TEST(LitmusImport, RejectsHugeInitialValue) {
  expect_too_large(import_error(with_values(kHuge, "1", "1")), 2);
}

TEST(LitmusImport, RejectsHugeStoredValue) {
  expect_too_large(import_error(with_values("0", kHuge, "1")), 4);
}

TEST(LitmusImport, RejectsHugeConditionConstant) {
  expect_too_large(import_error(with_values("0", "1", kHuge)), 6);
}

TEST(LitmusImport, AcceptsTheLargestValue) {
  const std::string max = "9223372036854775807";
  const ImportedTest t =
      import_litmus(with_values(max, max, max), "test.litmus");
  ASSERT_EQ(t.init.size(), 1u);
  EXPECT_EQ(t.init[0].second, INT64_MAX);
  const lang::ParsedLitmus p = lang::parse_litmus(t.source);
  ASSERT_EQ(p.program.initial_values().size(), 1u);
  EXPECT_EQ(p.program.initial_values()[0].second, INT64_MAX);
}

TEST(LitmusImport, RejectsMissingCondition) {
  const std::string err = import_error("C t\n{ x = 0; }\nP0 { x = 1; }\n");
  EXPECT_NE(err.find("expected final condition"), std::string::npos) << err;
}

// --- Translation -------------------------------------------------------------

TEST(LitmusImport, TranslatesTheFullAccessModeSurface) {
  const ImportedTest t = import_litmus(
      "C modes\n"
      "{ x = 0; y = 0; }\n"
      "P0 {\n"
      "  atomic_store_explicit(x, 1, memory_order_relaxed);\n"
      "  atomic_store_explicit(x, 2, memory_order_release);\n"
      "  atomic_store_explicit(x, 3, memory_order_seq_cst);\n"
      "  y = 4;\n"
      "  r0 = atomic_load_explicit(x, memory_order_relaxed);\n"
      "  r1 = atomic_load_explicit(x, memory_order_acquire);\n"
      "  r2 = atomic_load_explicit(x, memory_order_seq_cst);\n"
      "  r3 = y;\n"
      "  atomic_thread_fence(memory_order_acquire);\n"
      "  atomic_thread_fence(memory_order_release);\n"
      "  atomic_thread_fence(memory_order_acq_rel);\n"
      "  atomic_thread_fence(memory_order_seq_cst);\n"
      "  r4 = atomic_exchange_explicit(x, 5, memory_order_acq_rel);\n"
      "  atomic_exchange_explicit(x, 6, memory_order_seq_cst);\n"
      "}\n"
      "exists (0:r2 = 3)\n");
  for (const char* needle :
       {"x := 1;", "x :=R 2;", "x :=SC 3;", "y :=NA 4;", "r0 := x;",
        "r1 := x@A;", "r2 := x@SC;", "r3 := y@NA;", "fence_acq;",
        "fence_rel;", "fence_ar;", "fence_sc;", "r4 := x.swap(5);",
        "x.swap(6)SC;", "exists(1:r2 == 3)"}) {
    EXPECT_NE(t.source.find(needle), std::string::npos)
        << "missing '" << needle << "' in:\n"
        << t.source;
  }
  // The transpiled source must parse under the internal grammar.
  EXPECT_NO_THROW((void)lang::parse_litmus(t.source));
}

TEST(LitmusImport, ForbiddenSpellings) {
  const char* body = "{ x = 0; }\nP0 { x = 1; }\n";
  EXPECT_EQ(import_litmus(std::string("C t\n") + body + "~exists ([x] = 0)\n")
                .expected,
            Expectation::kForbidden);
  EXPECT_EQ(
      import_litmus(std::string("C t\n") + body + "forbidden ([x] = 0)\n")
          .expected,
      Expectation::kForbidden);
  // forall(P) == ~exists(~P).
  const ImportedTest fa =
      import_litmus(std::string("C t\n") + body + "forall ([x] = 1)\n");
  EXPECT_EQ(fa.expected, Expectation::kForbidden);
  EXPECT_NE(fa.source.find("forbidden(!("), std::string::npos) << fa.source;
}

TEST(LitmusImport, AutoDeclaresUntouchedLocations) {
  const ImportedTest t = import_litmus(
      "C t\n{ }\nP0 { atomic_store_explicit(x, 1, memory_order_relaxed); }\n"
      "exists ([x] = 1)\n");
  ASSERT_EQ(t.init.size(), 1u);
  EXPECT_EQ(t.init[0].first, "x");
  EXPECT_EQ(t.init[0].second, 0);
}

// --- Round trip --------------------------------------------------------------

TEST(LitmusImport, RoundTripsTheWholeCorpus) {
  const auto tests = litmus::import_path(RC11_CORPUS_DIR);
  ASSERT_GE(tests.size(), 30u);
  for (const ImportedTest& t : tests) {
    const std::string pretty = litmus::export_litmus(t);
    const ImportedTest again = import_litmus(pretty, t.name + " (exported)");
    EXPECT_EQ(again.name, t.name);
    EXPECT_EQ(again.expected, t.expected);
    EXPECT_EQ(again.source, t.source) << pretty;
    // Fingerprint equality of the re-parsed programs: the interpreter
    // configurations (continuation ASTs, registers, initial memory) are
    // indistinguishable.
    const lang::ParsedLitmus a = lang::parse_litmus(t.source);
    const lang::ParsedLitmus b = lang::parse_litmus(again.source);
    EXPECT_EQ(interp::initial_config(a.program).fingerprint(),
              interp::initial_config(b.program).fingerprint())
        << t.name;
  }
}

TEST(LitmusImport, CorpusOrderIsStable) {
  const auto a = litmus::import_path(RC11_CORPUS_DIR);
  const auto b = litmus::import_path(RC11_CORPUS_DIR);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].name, b[i].name);
  }
}

}  // namespace
}  // namespace rc11
