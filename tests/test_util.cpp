// Unit tests for the util substrate: Bitset, Relation, fmt, Cli,
// ThreadPool.
#include <gtest/gtest.h>

#include <atomic>
#include <numeric>

#include "util/bitset.hpp"
#include "util/cli.hpp"
#include "util/fmt.hpp"
#include "util/relation.hpp"
#include "util/thread_pool.hpp"

namespace rc11::util {
namespace {

// --- Bitset -------------------------------------------------------------

TEST(Bitset, StartsEmpty) {
  Bitset b(100);
  EXPECT_TRUE(b.empty());
  EXPECT_EQ(b.count(), 0u);
  EXPECT_EQ(b.first(), 100u);
}

TEST(Bitset, SetResetTest) {
  Bitset b(130);
  b.set(0);
  b.set(64);
  b.set(129);
  EXPECT_TRUE(b.test(0));
  EXPECT_TRUE(b.test(64));
  EXPECT_TRUE(b.test(129));
  EXPECT_FALSE(b.test(1));
  EXPECT_EQ(b.count(), 3u);
  b.reset(64);
  EXPECT_FALSE(b.test(64));
  EXPECT_EQ(b.count(), 2u);
}

TEST(Bitset, FirstAndNextIterate) {
  Bitset b(200);
  b.set(3);
  b.set(65);
  b.set(199);
  EXPECT_EQ(b.first(), 3u);
  EXPECT_EQ(b.next(3), 65u);
  EXPECT_EQ(b.next(65), 199u);
  EXPECT_EQ(b.next(199), 200u);
}

TEST(Bitset, LastFindsHighestMember) {
  Bitset inline_words(100);
  EXPECT_EQ(inline_words.last(), 100u);
  inline_words.set(3);
  inline_words.set(70);
  EXPECT_EQ(inline_words.last(), 70u);

  Bitset heap(300);
  heap.set(5);
  heap.set(256);
  EXPECT_EQ(heap.last(), 256u);
  heap.reset(256);
  EXPECT_EQ(heap.last(), 5u);

  Bitset sparse(1000);  // past the default sparse threshold
  ASSERT_TRUE(sparse.is_sparse());
  EXPECT_EQ(sparse.last(), 1000u);
  sparse.set(10);
  sparse.set(777);
  EXPECT_EQ(sparse.last(), 777u);
}

TEST(Bitset, ForEachVisitsAscending) {
  Bitset b(70);
  b.set(69);
  b.set(2);
  b.set(33);
  std::vector<std::size_t> seen;
  b.for_each([&](std::size_t i) { seen.push_back(i); });
  EXPECT_EQ(seen, (std::vector<std::size_t>{2, 33, 69}));
  EXPECT_EQ(b.elements(), seen);
}

TEST(Bitset, SetAlgebra) {
  Bitset a(10), b(10);
  a.set(1);
  a.set(2);
  b.set(2);
  b.set(3);
  Bitset u = a | b;
  EXPECT_EQ(u.elements(), (std::vector<std::size_t>{1, 2, 3}));
  Bitset i = a & b;
  EXPECT_EQ(i.elements(), (std::vector<std::size_t>{2}));
  Bitset d = a;
  d.subtract(b);
  EXPECT_EQ(d.elements(), (std::vector<std::size_t>{1}));
}

TEST(Bitset, DisjointAndSubset) {
  Bitset a(10), b(10), c(10);
  a.set(1);
  b.set(2);
  c.set(1);
  c.set(2);
  EXPECT_TRUE(a.disjoint(b));
  EXPECT_FALSE(a.disjoint(c));
  EXPECT_TRUE(a.subset_of(c));
  EXPECT_FALSE(c.subset_of(a));
}

TEST(Bitset, ResizePreservesAndTrims) {
  Bitset b(10);
  b.set(9);
  b.resize(20);
  EXPECT_TRUE(b.test(9));
  b.set(19);
  b.resize(10);
  EXPECT_TRUE(b.test(9));
  EXPECT_EQ(b.count(), 1u);
}

TEST(Bitset, FillRespectsSize) {
  Bitset b(67);
  b.fill();
  EXPECT_EQ(b.count(), 67u);
}

TEST(Bitset, LargeUniverseSpillsToHeapAndCopies) {
  // Universes beyond the inline small-buffer (128 elements) spill to the
  // heap; copy/move/assign must carry the full contents (regression: the
  // copy constructor once read the source through the inline buffer).
  Bitset a(300);
  a.set(0);
  a.set(129);
  a.set(299);
  const Bitset copy(a);
  EXPECT_EQ(copy, a);
  EXPECT_EQ(copy.count(), 3u);
  EXPECT_TRUE(copy.test(129) && copy.test(299));

  Bitset assigned(5);
  assigned = a;
  EXPECT_EQ(assigned, a);

  Bitset moved(std::move(assigned));
  EXPECT_EQ(moved, a);

  // Shrink/grow cycles across the inline boundary stay exact.
  Bitset c = a;
  c.resize(100);
  c.resize(300);
  EXPECT_EQ(c.count(), 1u);  // only bit 0 survives the shrink
  EXPECT_TRUE(c.test(0));

  // Back-assign a small set into a heap-backed one.
  Bitset small(10);
  small.set(3);
  c = small;
  EXPECT_EQ(c, small);
}

TEST(Bitset, HashIsContentBased) {
  Bitset a(100), b(100);
  a.set(42);
  b.set(42);
  EXPECT_EQ(a.hash(), b.hash());
  b.set(43);
  EXPECT_NE(a.hash(), b.hash());
}

TEST(Bitset, ToString) {
  Bitset b(10);
  b.set(1);
  b.set(7);
  EXPECT_EQ(b.to_string(), "{1, 7}");
}

// --- Relation -----------------------------------------------------------

TEST(Relation, AddContains) {
  Relation r(5);
  r.add(1, 2);
  EXPECT_TRUE(r.contains(1, 2));
  EXPECT_FALSE(r.contains(2, 1));
  EXPECT_EQ(r.pair_count(), 1u);
}

TEST(Relation, ComposeChainsEdges) {
  Relation r(4), s(4);
  r.add(0, 1);
  s.add(1, 2);
  s.add(1, 3);
  Relation rs = r.compose(s);
  EXPECT_TRUE(rs.contains(0, 2));
  EXPECT_TRUE(rs.contains(0, 3));
  EXPECT_EQ(rs.pair_count(), 2u);
}

TEST(Relation, InverseSwapsPairs) {
  Relation r(3);
  r.add(0, 2);
  Relation inv = r.inverse();
  EXPECT_TRUE(inv.contains(2, 0));
  EXPECT_EQ(inv.pair_count(), 1u);
}

TEST(Relation, TransitiveClosureOfChain) {
  Relation r(4);
  r.add(0, 1);
  r.add(1, 2);
  r.add(2, 3);
  Relation tc = r.transitive_closure();
  EXPECT_TRUE(tc.contains(0, 3));
  EXPECT_TRUE(tc.contains(0, 2));
  EXPECT_TRUE(tc.contains(1, 3));
  EXPECT_FALSE(tc.contains(3, 0));
  EXPECT_EQ(tc.pair_count(), 6u);
}

TEST(Relation, TransitiveClosureDetectsCycle) {
  Relation r(3);
  r.add(0, 1);
  r.add(1, 0);
  Relation tc = r.transitive_closure();
  EXPECT_TRUE(tc.contains(0, 0));
  EXPECT_FALSE(r.is_acyclic());
}

TEST(Relation, AcyclicForDag) {
  Relation r(4);
  r.add(0, 1);
  r.add(0, 2);
  r.add(1, 3);
  r.add(2, 3);
  EXPECT_TRUE(r.is_acyclic());
}

TEST(Relation, ReflexiveClosures) {
  Relation r(3);
  r.add(0, 1);
  Relation rc = r.reflexive_closure();
  EXPECT_TRUE(rc.contains(0, 0));
  EXPECT_TRUE(rc.contains(1, 1));
  Relation rtc = r.reflexive_transitive_closure();
  EXPECT_TRUE(rtc.contains(0, 1));
  EXPECT_TRUE(rtc.contains(2, 2));
}

TEST(Relation, StrictTotalOrderRecognition) {
  Relation r(4);
  Bitset s(4);
  s.set(0);
  s.set(1);
  s.set(2);
  r.add(0, 1);
  r.add(1, 2);
  // Not transitive yet: (0,2) missing.
  EXPECT_FALSE(r.is_strict_total_order_on(s));
  r.add(0, 2);
  EXPECT_TRUE(r.is_strict_total_order_on(s));
  // Reflexive edge breaks strictness.
  r.add(0, 0);
  EXPECT_FALSE(r.is_strict_total_order_on(s));
}

TEST(Relation, TopologicalOrderRespectsEdges) {
  Relation r(4);
  r.add(2, 0);
  r.add(0, 1);
  auto order = r.topological_order();
  ASSERT_TRUE(order.has_value());
  std::vector<std::size_t> pos(4);
  for (std::size_t i = 0; i < order->size(); ++i) pos[(*order)[i]] = i;
  EXPECT_LT(pos[2], pos[0]);
  EXPECT_LT(pos[0], pos[1]);
}

TEST(Relation, TopologicalOrderFailsOnCycle) {
  Relation r(2);
  r.add(0, 1);
  r.add(1, 0);
  EXPECT_FALSE(r.topological_order().has_value());
}

TEST(Relation, ReachableFromExcludesSelfUnlessCyclic) {
  Relation r(4);
  r.add(0, 1);
  r.add(1, 2);
  Bitset reach = r.reachable_from(0);
  EXPECT_TRUE(reach.test(1));
  EXPECT_TRUE(reach.test(2));
  EXPECT_FALSE(reach.test(0));
  r.add(2, 0);
  EXPECT_TRUE(r.reachable_from(0).test(0));
}

TEST(Relation, RestrictToDropsOutsidePairs) {
  Relation r(4);
  r.add(0, 1);
  r.add(1, 2);
  Bitset s(4);
  s.set(0);
  s.set(1);
  Relation rr = r.restrict_to(s);
  EXPECT_TRUE(rr.contains(0, 1));
  EXPECT_FALSE(rr.contains(1, 2));
}

TEST(Relation, ResizeKeepsPairs) {
  Relation r(2);
  r.add(0, 1);
  r.resize(5);
  EXPECT_TRUE(r.contains(0, 1));
  r.add(4, 0);
  EXPECT_TRUE(r.contains(4, 0));
}

TEST(Relation, ColumnCollectsPredecessors) {
  Relation r(4);
  r.add(0, 3);
  r.add(2, 3);
  Bitset col = r.column(3);
  EXPECT_EQ(col.elements(), (std::vector<std::size_t>{0, 2}));
}

// --- fmt ------------------------------------------------------------------

TEST(Fmt, CatConcatenates) {
  EXPECT_EQ(cat("x=", 3, "!"), "x=3!");
  EXPECT_EQ(cat(), "");
}

TEST(Fmt, JoinWithSeparator) {
  std::vector<int> v{1, 2, 3};
  EXPECT_EQ(join(v, ", "), "1, 2, 3");
}

TEST(Fmt, SplitKeepsEmptyFields) {
  auto parts = split("a,,b", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[1], "");
}

TEST(Fmt, TrimStripsWhitespace) {
  EXPECT_EQ(trim("  hi \n"), "hi");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("  "), "");
}

// --- Cli --------------------------------------------------------------------

TEST(Cli, ParsesOptionsAndFlags) {
  Cli cli;
  cli.option("bound", "4", "loop bound").flag("verbose", "talk more");
  const char* argv[] = {"prog", "--bound", "7", "--verbose", "pos1"};
  ASSERT_TRUE(cli.parse(5, argv));
  EXPECT_EQ(cli.get_int("bound"), 7);
  EXPECT_TRUE(cli.get_flag("verbose"));
  ASSERT_EQ(cli.positional().size(), 1u);
  EXPECT_EQ(cli.positional()[0], "pos1");
}

TEST(Cli, EqualsSyntaxAndDefaults) {
  Cli cli;
  cli.option("bound", "4", "loop bound");
  const char* argv[] = {"prog", "--bound=9"};
  ASSERT_TRUE(cli.parse(2, argv));
  EXPECT_EQ(cli.get_int("bound"), 9);

  Cli cli2;
  cli2.option("bound", "4", "loop bound");
  const char* argv2[] = {"prog"};
  ASSERT_TRUE(cli2.parse(1, argv2));
  EXPECT_EQ(cli2.get_int("bound"), 4);
}

TEST(Cli, RejectsUnknownOption) {
  Cli cli;
  const char* argv[] = {"prog", "--nope"};
  EXPECT_FALSE(cli.parse(2, argv));
  EXPECT_NE(cli.error().find("--nope"), std::string::npos);
}

TEST(Cli, HelpRequested) {
  Cli cli;
  const char* argv[] = {"prog", "--help"};
  ASSERT_TRUE(cli.parse(2, argv));
  EXPECT_TRUE(cli.help_requested());
}

TEST(Cli, OptionalValueOptionNeverConsumesNextArg) {
  // Bare --progress must yield the implicit value and leave the following
  // argument a positional (a bare optional option before a file path must
  // not swallow the path).
  Cli cli;
  cli.optional_option("progress", "0", "1000", "heartbeat ms");
  const char* argv[] = {"prog", "--progress", "file.litmus"};
  ASSERT_TRUE(cli.parse(3, argv));
  EXPECT_EQ(cli.get_int("progress"), 1000);
  ASSERT_EQ(cli.positional().size(), 1u);
  EXPECT_EQ(cli.positional()[0], "file.litmus");

  Cli cli2;
  cli2.optional_option("progress", "0", "1000", "heartbeat ms");
  const char* argv2[] = {"prog", "--progress=250"};
  ASSERT_TRUE(cli2.parse(2, argv2));
  EXPECT_EQ(cli2.get_int("progress"), 250);

  Cli cli3;
  cli3.optional_option("progress", "0", "1000", "heartbeat ms");
  const char* argv3[] = {"prog"};
  ASSERT_TRUE(cli3.parse(1, argv3));
  EXPECT_EQ(cli3.get_int("progress"), 0);
  EXPECT_NE(cli3.usage("prog").find("--progress[=value]"),
            std::string::npos);
}

// --- ThreadPool ---------------------------------------------------------------

TEST(ThreadPool, RunsAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) {
    pool.submit([&count] { count.fetch_add(1); });
  }
  pool.wait_idle();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, TasksCanSubmitTasks) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  pool.submit([&] {
    for (int i = 0; i < 10; ++i) {
      pool.submit([&count] { count.fetch_add(1); });
    }
  });
  pool.wait_idle();
  EXPECT_EQ(count.load(), 10);
}

TEST(ThreadPool, WaitIdleOnEmptyPoolReturns) {
  ThreadPool pool(1);
  pool.wait_idle();  // must not hang
  SUCCEED();
}

}  // namespace
}  // namespace rc11::util
