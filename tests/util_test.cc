#include <gtest/gtest.h>

#include <set>

#include "util/check.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/strings.h"

namespace sm {
namespace {

TEST(Check, CheckThrowsInternalError) {
  EXPECT_THROW(SM_CHECK(1 == 2, "math broke"), InternalError);
  EXPECT_NO_THROW(SM_CHECK(1 == 1, "fine"));
}

TEST(Check, RequireThrowsInvalidArgument) {
  EXPECT_THROW(SM_REQUIRE(false, "bad arg"), std::invalid_argument);
}

TEST(Check, MessageContainsContext) {
  try {
    SM_CHECK(false, "value was " << 42);
    FAIL() << "expected throw";
  } catch (const InternalError& e) {
    EXPECT_NE(std::string(e.what()).find("value was 42"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("util_test"), std::string::npos);
  }
}

TEST(Rng, Deterministic) {
  Rng a(12345);
  Rng b(12345);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.Next() == b.Next());
  EXPECT_LT(same, 2);
}

TEST(Rng, BelowRespectsBound) {
  Rng r(7);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(r.Below(17), 17u);
  EXPECT_THROW(r.Below(0), std::invalid_argument);
}

TEST(Rng, BelowIsRoughlyUniform) {
  Rng r(99);
  std::vector<int> hist(8, 0);
  const int kDraws = 80000;
  for (int i = 0; i < kDraws; ++i) ++hist[r.Below(8)];
  for (int h : hist) {
    EXPECT_NEAR(h, kDraws / 8, kDraws / 8 * 0.1);
  }
}

TEST(Rng, RangeInclusive) {
  Rng r(3);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const std::int64_t v = r.Range(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    saw_lo |= (v == -2);
    saw_hi |= (v == 2);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, UniformInUnitInterval) {
  Rng r(5);
  for (int i = 0; i < 1000; ++i) {
    const double u = r.Uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

// LanePatterns draws each pattern bit as the complement of the top bit of
// one Next(); this is the identity with Chance(0.5) it relies on.
TEST(Rng, FairChanceIsTheClearTopBit) {
  for (const std::uint64_t seed : {1ull, 0x5eedull, 0xfeedfacecafebeefull}) {
    Rng chance(seed);
    Rng next(seed);
    for (int i = 0; i < 10000; ++i) {
      ASSERT_EQ(chance.Chance(0.5), (next.Next() >> 63) == 0)
          << "seed " << seed << " draw " << i;
    }
  }
}

TEST(Rng, SampleDistinctSorted) {
  Rng r(11);
  const auto s = r.Sample(100, 10);
  ASSERT_EQ(s.size(), 10u);
  std::set<std::size_t> uniq(s.begin(), s.end());
  EXPECT_EQ(uniq.size(), 10u);
  for (auto v : s) EXPECT_LT(v, 100u);
  EXPECT_TRUE(std::is_sorted(s.begin(), s.end()));
}

TEST(Rng, SampleFullRange) {
  Rng r(13);
  const auto s = r.Sample(5, 5);
  EXPECT_EQ(s, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
}

TEST(Rng, ShufflePermutes) {
  Rng r(17);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto w = v;
  r.Shuffle(w);
  std::multiset<int> a(v.begin(), v.end());
  std::multiset<int> b(w.begin(), w.end());
  EXPECT_EQ(a, b);
}

TEST(Rng, HashNameStable) {
  EXPECT_EQ(HashName("C432"), HashName("C432"));
  EXPECT_NE(HashName("C432"), HashName("C880"));
}

TEST(Stats, AccumulatorMoments) {
  Accumulator acc;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) acc.Add(x);
  EXPECT_EQ(acc.count(), 8u);
  EXPECT_DOUBLE_EQ(acc.mean(), 5.0);
  EXPECT_DOUBLE_EQ(acc.variance(), 4.0);
  EXPECT_DOUBLE_EQ(acc.stddev(), 2.0);
  EXPECT_DOUBLE_EQ(acc.min(), 2.0);
  EXPECT_DOUBLE_EQ(acc.max(), 9.0);
  EXPECT_DOUBLE_EQ(acc.sum(), 40.0);
}

TEST(Stats, EmptyAccumulator) {
  Accumulator acc;
  EXPECT_EQ(acc.count(), 0u);
  EXPECT_EQ(acc.mean(), 0.0);
  EXPECT_EQ(acc.variance(), 0.0);
}

TEST(Stats, Percentile) {
  std::vector<double> v{1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(Percentile(v, 0), 1.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 50), 3.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 100), 5.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 25), 2.0);
}

TEST(Stats, GeometricMean) {
  EXPECT_DOUBLE_EQ(GeometricMean({1, 4}), 2.0);
  EXPECT_EQ(GeometricMean({}), 0.0);
  EXPECT_THROW(GeometricMean({1.0, -1.0}), std::invalid_argument);
}

TEST(Strings, SplitWhitespace) {
  EXPECT_EQ(SplitWhitespace("  a  bb\tccc\n"),
            (std::vector<std::string>{"a", "bb", "ccc"}));
  EXPECT_TRUE(SplitWhitespace("   ").empty());
}

TEST(Strings, SplitChar) {
  EXPECT_EQ(SplitChar("a,,b", ','), (std::vector<std::string>{"a", "", "b"}));
  EXPECT_EQ(SplitChar("", ','), (std::vector<std::string>{""}));
}

TEST(Strings, Trim) {
  EXPECT_EQ(Trim("  x y  "), "x y");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(Trim(" \t\n"), "");
}

TEST(Strings, StartsWith) {
  EXPECT_TRUE(StartsWith(".names a b", ".names"));
  EXPECT_FALSE(StartsWith(".name", ".names"));
}

TEST(Strings, FormatCount) {
  EXPECT_EQ(FormatCount(0), "0");
  EXPECT_EQ(FormatCount(16), "16");
  EXPECT_EQ(FormatCount(8e66), "8.00e+66");
}

}  // namespace
}  // namespace sm
