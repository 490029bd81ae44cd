// Allocation budget of a query's start.
//
// Every query starts from sigma_0. Its cache is built directly (no
// closure), the start configuration moves into the engine, the DPOR
// engine's signature table, record store and a fresh node's sets stay
// inline while they fit, and sigma_0's event list and relations come with
// room for a litmus-scale search. This test counts, with its own global operator
// new, the heap allocations of one call of each query on a one-write
// program and on SB, under `none` and under `source-sleep`, and holds each
// to a budget:
//
//  * one-write: half of what the call allocated before the start-up work
//    above (its allocations are nearly all start-up), and for
//    check_reachable at most 31 under `none` and 40 under `source-sleep`;
//  * SB: what each call allocates with the start-up work above, each below
//    its count without it. Most of what is left is per transition
//    (lang::step's continuations, the register snapshots of the undo
//    records), which compiled thread code is to remove.
//
// The counts come from a Debug build, which allocates at least as often as
// Release. One warm-up call per query runs first, so the thread-local
// scratch buffers the engines reuse across calls are not counted. The
// counting operator new forwards to malloc, so the test runs under the
// sanitizers too.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <functional>
#include <new>
#include <string>

#include "lang/parser.hpp"
#include "mc/checker.hpp"

namespace {

std::atomic<std::size_t> g_allocations{0};

void* counted_alloc(std::size_t n) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}

void* counted_aligned_alloc(std::size_t n, std::align_val_t al) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  void* p = nullptr;
  const auto align = std::max(static_cast<std::size_t>(al), sizeof(void*));
  if (posix_memalign(&p, align, n == 0 ? 1 : n) != 0) throw std::bad_alloc();
  return p;
}

}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void* operator new(std::size_t n, std::align_val_t al) {
  return counted_aligned_alloc(n, al);
}
void* operator new[](std::size_t n, std::align_val_t al) {
  return counted_aligned_alloc(n, al);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace rc11::mc {
namespace {

constexpr const char* kOneWrite = R"(litmus one_write
var x = 0
thread 1 { x := 1; }
exists (x == 1))";

constexpr const char* kSB = R"(litmus SB
var x = 0
var y = 0
thread 1 { x := 1; r0 := y; }
thread 2 { y := 1; r1 := x; }
exists (1:r0 == 0 && 2:r1 == 0))";

/// Heap allocations of the second of two calls of `query`.
std::size_t allocations_of(const std::function<void()>& query) {
  query();
  const std::size_t before = g_allocations.load();
  query();
  return g_allocations.load() - before;
}

/// Per query: the budget under `none`, then under `source-sleep`.
struct Budgets {
  std::size_t outcomes[2];
  std::size_t reach[2];
  std::size_t race[2];
  std::size_t invariant[2];
  std::size_t finals[2];
};

void expect_within(const char* source, const Budgets& budget) {
  const lang::ParsedLitmus t = lang::parse_litmus(source);
  const PorMode modes[] = {PorMode::kNone, kDefaultPor};
  for (int m = 0; m < 2; ++m) {
    ExploreOptions o;
    o.por = modes[m];
    const std::string tag = t.name + " under " + por_mode_name(modes[m]);
    EXPECT_LE(allocations_of([&] { (void)enumerate_outcomes(t.program, o); }),
              budget.outcomes[m])
        << tag << ": enumerate_outcomes";
    EXPECT_LE(allocations_of([&] {
                (void)check_reachable(t.program, t.condition, o);
              }),
              budget.reach[m])
        << tag << ": check_reachable";
    EXPECT_LE(allocations_of([&] { (void)check_race_free(t.program, o); }),
              budget.race[m])
        << tag << ": check_race_free";
    EXPECT_LE(allocations_of([&] {
                (void)check_invariant(
                    t.program, [](const interp::Config&) { return true; }, o);
              }),
              budget.invariant[m])
        << tag << ": check_invariant";
    EXPECT_LE(allocations_of([&] {
                (void)collect_final_executions(t.program, o);
              }),
              budget.finals[m])
        << tag << ": collect_final_executions";
  }
}

TEST(QueryStartup, OneWriteQueryAllocatesHalfOfWhatItDid) {
  // Without the start-up work: outcomes 66 / 87, reach 62 / 82, race
  // 63 / 84, invariant 63 / 67, finals 64 / 85 (none / source-sleep).
  expect_within(kOneWrite, {.outcomes = {33, 43},
                            .reach = {31, 40},
                            .race = {31, 42},
                            .invariant = {31, 33},
                            .finals = {32, 42}});
}

TEST(QueryStartup, SbQueryAllocatesLessThanItDid) {
  // Without the start-up work: outcomes 188 / 256, reach 107 / 162, race
  // 275 / 232, invariant 229 / 288, finals 168 / 236 (none / source-sleep).
  expect_within(kSB, {.outcomes = {128, 177},
                      .reach = {50, 97},
                      .race = {218, 156},
                      .invariant = {172, 231},
                      .finals = {111, 160}});
}

}  // namespace
}  // namespace rc11::mc
