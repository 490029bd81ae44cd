// The litmus catalogue, model-checked: every test's observed
// allowed/forbidden status must match the RAR model's expected outcome.
// This validates the operational semantics end-to-end (parser -> command
// semantics -> event semantics -> explorer).
#include <gtest/gtest.h>

#include "litmus/runner.hpp"

namespace rc11::litmus {
namespace {

class CatalogTest : public ::testing::TestWithParam<Test> {};

TEST_P(CatalogTest, ObservedMatchesExpected) {
  const RunResult r = run_test(GetParam());
  EXPECT_TRUE(r.pass) << r.to_string()
                      << "\nrationale: " << GetParam().rationale;
}

INSTANTIATE_TEST_SUITE_P(
    AllTests, CatalogTest, ::testing::ValuesIn(catalog()),
    [](const ::testing::TestParamInfo<Test>& info) {
      std::string name = info.param.name;
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name;
    });

TEST(Catalog, FindByName) {
  EXPECT_EQ(find_test("MP_ra").expected, Expectation::kForbidden);
  EXPECT_THROW((void)find_test("nope"), std::out_of_range);
}

TEST(Catalog, HasBothExpectations) {
  bool allowed = false, forbidden = false;
  for (const litmus::Test& t : catalog()) {
    (t.expected == Expectation::kAllowed ? allowed : forbidden) = true;
  }
  EXPECT_TRUE(allowed);
  EXPECT_TRUE(forbidden);
}

TEST(Runner, SearchCutShortByTheBudgetIsUndecidedAndNeverPasses) {
  // Two states reach no final state of any catalogue test, so no
  // condition is reached and every search is truncated: "not reached" is
  // then no evidence of "forbidden", and a forbidden-expected test must
  // not pass on it. (The searches fuse silent steps, so CoRW1 decides
  // within three states.)
  mc::ExploreOptions options;
  options.max_states = 2;
  std::vector<RunResult> rs;
  for (const litmus::Test& t : catalog()) {
    RunResult r = run_test(t, options);
    EXPECT_TRUE(r.stats.truncated) << r.to_string();
    EXPECT_TRUE(r.undecided()) << r.to_string();
    EXPECT_FALSE(r.pass) << r.to_string();
    EXPECT_NE(r.to_string().find("observed unknown -> FAIL"),
              std::string::npos)
        << r.to_string();
    rs.push_back(std::move(r));
  }
  const std::string table = format_table(rs);
  EXPECT_EQ(table.find("PASS"), std::string::npos) << table;
  // The observed column reads "unknown" on every row.
  std::size_t unknown_rows = 0;
  for (std::size_t at = table.find("unknown"); at != std::string::npos;
       at = table.find("unknown", at + 1)) {
    ++unknown_rows;
  }
  EXPECT_EQ(unknown_rows, catalog().size()) << table;
}

TEST(Runner, TableFormatsOneRowPerTest) {
  std::vector<RunResult> rs;
  rs.push_back(run_test(find_test("MP_ra")));
  const std::string table = format_table(rs);
  EXPECT_NE(table.find("MP_ra"), std::string::npos);
  EXPECT_NE(table.find("PASS"), std::string::npos);
}

}  // namespace
}  // namespace rc11::litmus
