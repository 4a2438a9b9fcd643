// Tests for the deterministic RNG and its distributions.
#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <vector>

namespace btpub {
namespace {

TEST(Rng, SameSeedSameStream) {
  Rng a(123), b(123);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_EQ(a.next(), b.next());
  }
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 1000; ++i) {
    if (a.next() == b.next()) ++equal;
  }
  EXPECT_LT(equal, 3);
}

TEST(Rng, NearbySeedsAreDecorrelated) {
  // SplitMix64 seeding must break up seed adjacency.
  Rng a(100), b(101);
  double matches = 0;
  for (int i = 0; i < 1000; ++i) {
    if ((a.next() & 0xff) == (b.next() & 0xff)) ++matches;
  }
  EXPECT_NEAR(matches / 1000.0, 1.0 / 256.0, 0.02);
}

TEST(Rng, ForkIsIndependentOfParentContinuation) {
  Rng parent(7);
  Rng child = parent.fork();
  const auto child_first = child.next();
  // Re-derive: same parent seed gives the same child stream regardless of
  // what the parent does afterwards.
  Rng parent2(7);
  Rng child2 = parent2.fork();
  parent2.next();
  parent2.next();
  EXPECT_EQ(child_first, child2.next());
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(5);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
  }
}

TEST(Rng, UniformMeanAndRange) {
  Rng rng(6);
  double sum = 0;
  for (int i = 0; i < 20000; ++i) sum += rng.uniform(10.0, 20.0);
  EXPECT_NEAR(sum / 20000.0, 15.0, 0.1);
}

TEST(Rng, UniformIntInclusiveBounds) {
  Rng rng(8);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.uniform_int(3, 7);
    ASSERT_GE(v, 3);
    ASSERT_LE(v, 7);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);  // all values hit
}

TEST(Rng, UniformIntSingleton) {
  Rng rng(9);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.uniform_int(42, 42), 42);
}

TEST(Rng, UniformIntNegativeRange) {
  Rng rng(10);
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.uniform_int(-5, -1);
    ASSERT_GE(v, -5);
    ASSERT_LE(v, -1);
  }
}

TEST(Rng, ChanceEdges) {
  Rng rng(11);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
    EXPECT_FALSE(rng.chance(-1.0));
    EXPECT_TRUE(rng.chance(2.0));
  }
}

TEST(Rng, ChanceFrequency) {
  Rng rng(12);
  int hits = 0;
  for (int i = 0; i < 50000; ++i) hits += rng.chance(0.3);
  EXPECT_NEAR(hits / 50000.0, 0.3, 0.01);
}

TEST(Rng, NormalMoments) {
  Rng rng(13);
  double sum = 0, sum2 = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    sum += x;
    sum2 += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sum2 / n, 1.0, 0.03);
}

TEST(Rng, NormalAffine) {
  Rng rng(14);
  double sum = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) sum += rng.normal(100.0, 5.0);
  EXPECT_NEAR(sum / n, 100.0, 0.1);
}

TEST(Rng, LognormalMedian) {
  Rng rng(15);
  std::vector<double> draws;
  for (int i = 0; i < 20001; ++i) draws.push_back(rng.lognormal_median(50.0, 1.0));
  std::nth_element(draws.begin(), draws.begin() + 10000, draws.end());
  EXPECT_NEAR(draws[10000], 50.0, 3.0);
}

TEST(Rng, ExponentialMean) {
  Rng rng(16);
  double sum = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(7.0);
  EXPECT_NEAR(sum / n, 7.0, 0.15);
}

TEST(Rng, IndexWithinBounds) {
  Rng rng(20);
  for (int i = 0; i < 1000; ++i) ASSERT_LT(rng.index(17), 17u);
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(21);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8, 9};
  auto sorted = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(Rng, SampleIndicesDistinct) {
  Rng rng(22);
  for (int trial = 0; trial < 50; ++trial) {
    const auto sample = rng.sample_indices(100, 10);
    ASSERT_EQ(sample.size(), 10u);
    std::set<std::size_t> unique(sample.begin(), sample.end());
    ASSERT_EQ(unique.size(), 10u);
    for (std::size_t idx : sample) ASSERT_LT(idx, 100u);
  }
}

TEST(Rng, SampleIndicesAllWhenKTooLarge) {
  Rng rng(23);
  const auto sample = rng.sample_indices(5, 50);
  EXPECT_EQ(sample.size(), 5u);
  std::set<std::size_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 5u);
}

TEST(Rng, SampleIndicesUniformCoverage) {
  Rng rng(24);
  std::vector<int> counts(20, 0);
  for (int trial = 0; trial < 4000; ++trial) {
    for (std::size_t idx : rng.sample_indices(20, 5)) ++counts[idx];
  }
  // Each index expected 4000 * 5/20 = 1000 times.
  for (int c : counts) EXPECT_NEAR(c, 1000, 120);
}

TEST(Rng, WeightedIndexProportions) {
  Rng rng(25);
  const std::vector<double> weights{1.0, 3.0, 6.0};
  std::vector<int> counts(3, 0);
  for (int i = 0; i < 30000; ++i) ++counts[rng.weighted_index(weights)];
  EXPECT_NEAR(counts[0] / 30000.0, 0.1, 0.01);
  EXPECT_NEAR(counts[1] / 30000.0, 0.3, 0.015);
  EXPECT_NEAR(counts[2] / 30000.0, 0.6, 0.015);
}

TEST(Rng, WeightedIndexIgnoresNegativeWeights) {
  Rng rng(26);
  const std::vector<double> weights{-5.0, 0.0, 2.0};
  for (int i = 0; i < 1000; ++i) ASSERT_EQ(rng.weighted_index(weights), 2u);
}

class RngSeedTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RngSeedTest, UniformIntUnbiasedAcrossSeeds) {
  Rng rng(GetParam());
  std::vector<int> counts(6, 0);
  for (int i = 0; i < 60000; ++i) ++counts[rng.uniform_int(0, 5)];
  for (int c : counts) EXPECT_NEAR(c, 10000, 400);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RngSeedTest,
                         ::testing::Values(1u, 42u, 0xdeadbeefu, ~0ull));

}  // namespace
}  // namespace btpub
