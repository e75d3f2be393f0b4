// Tests for src/common: RNG determinism and statistics, table formatting,
// CLI parsing, error plumbing.
#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <sstream>
#include <vector>

#include "common/cli.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"

namespace mpgeo {
namespace {

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(42), b(42);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-3.0, 5.0);
    ASSERT_GE(u, -3.0);
    ASSERT_LT(u, 5.0);
  }
}

TEST(Rng, NormalMomentsMatchStandardNormal) {
  Rng rng(123);
  const int n = 200000;
  double sum = 0, sum2 = 0;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    sum += x;
    sum2 += x * x;
  }
  const double mean = sum / n;
  const double var = sum2 / n - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.01);
  EXPECT_NEAR(var, 1.0, 0.02);
}

TEST(Rng, NormalWithParamsShiftsAndScales) {
  Rng rng(5);
  const int n = 100000;
  double sum = 0;
  for (int i = 0; i < n; ++i) sum += rng.normal(10.0, 0.5);
  EXPECT_NEAR(sum / n, 10.0, 0.02);
}

TEST(Rng, UniformIndexUnbiasedAndInRange) {
  Rng rng(9);
  std::vector<int> counts(7, 0);
  for (int i = 0; i < 70000; ++i) {
    const auto v = rng.uniform_index(7);
    ASSERT_LT(v, 7u);
    counts[v]++;
  }
  for (int c : counts) EXPECT_NEAR(c, 10000, 500);
}

TEST(Rng, UniformIndexRejectsZero) {
  Rng rng(1);
  EXPECT_THROW(rng.uniform_index(0), Error);
}

TEST(Rng, SpawnedStreamsAreIndependent) {
  Rng parent(77);
  Rng s1 = parent.spawn(1);
  Rng s2 = parent.spawn(2);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 100; ++i) {
    seen.insert(s1.next_u64());
    seen.insert(s2.next_u64());
  }
  EXPECT_EQ(seen.size(), 200u);  // no collisions across streams
}

TEST(Table, AlignsColumnsAndPrintsAllRows) {
  Table t({"name", "value"});
  t.add_row({"alpha", "1"});
  t.add_row({"b", "22.5"});
  std::ostringstream os;
  t.print(os);
  const std::string s = os.str();
  EXPECT_NE(s.find("alpha"), std::string::npos);
  EXPECT_NE(s.find("22.5"), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
}

TEST(Table, RejectsWrongArity) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), Error);
}

TEST(Table, NumFormatsSmallAndLargeMagnitudes) {
  EXPECT_EQ(Table::num(0.0, 2), "0.00");
  EXPECT_NE(Table::num(1e-9, 3).find("e"), std::string::npos);
  EXPECT_NE(Table::num(3.25e8, 3).find("e"), std::string::npos);
}

TEST(Cli, ParsesSeparateAndEqualsForms) {
  const char* argv[] = {"prog", "--n", "128", "--name=matern", "--flag"};
  Cli cli(5, const_cast<char**>(argv));
  EXPECT_EQ(cli.get_int("n", 0), 128);
  EXPECT_EQ(cli.get_string("name", ""), "matern");
  EXPECT_TRUE(cli.get_bool("flag", false));
}

TEST(Cli, DefaultsApplyWhenAbsent) {
  const char* argv[] = {"prog"};
  Cli cli(1, const_cast<char**>(argv));
  EXPECT_EQ(cli.get_int("missing", 7), 7);
  EXPECT_DOUBLE_EQ(cli.get_double("missing", 0.5), 0.5);
}

TEST(Cli, RejectsMalformedNumbers) {
  const char* argv[] = {"prog", "--n", "12x"};
  Cli cli(3, const_cast<char**>(argv));
  EXPECT_THROW(cli.get_int("n", 0), Error);
}

TEST(Cli, CheckUnusedFlagsTypos) {
  const char* argv[] = {"prog", "--typo", "3"};
  Cli cli(3, const_cast<char**>(argv));
  EXPECT_THROW(cli.check_unused(), Error);
}

TEST(Error, RequireThrowsWithLocation) {
  try {
    MPGEO_REQUIRE(false, "broken invariant");
    FAIL();
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("broken invariant"),
              std::string::npos);
  }
}

}  // namespace
}  // namespace mpgeo
