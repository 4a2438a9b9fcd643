// Tests for descriptive statistics used by the analysis pipeline.
#include "util/stats.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "util/rng.hpp"

namespace btpub {
namespace {

TEST(BoxStats, SingleValue) {
  const std::vector<double> v{7.0};
  const BoxStats b = box_stats(v);
  EXPECT_EQ(b.min, 7.0);
  EXPECT_EQ(b.p25, 7.0);
  EXPECT_EQ(b.median, 7.0);
  EXPECT_EQ(b.p75, 7.0);
  EXPECT_EQ(b.max, 7.0);
}

TEST(BoxStats, LinearInterpolation) {
  const std::vector<double> v{0.0, 10.0};
  const BoxStats b = box_stats(v);
  EXPECT_DOUBLE_EQ(b.median, 5.0);
  EXPECT_DOUBLE_EQ(b.p25, 2.5);
}

TEST(BoxStats, UnsortedInput) {
  const std::vector<double> v{9.0, 1.0, 5.0, 3.0, 7.0};
  const BoxStats b = box_stats(v);
  EXPECT_DOUBLE_EQ(b.median, 5.0);
  EXPECT_DOUBLE_EQ(b.min, 1.0);
  EXPECT_DOUBLE_EQ(b.max, 9.0);
}

TEST(Mean, KnownValues) {
  const std::vector<double> v{2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  EXPECT_DOUBLE_EQ(mean(v), 5.0);
  EXPECT_EQ(mean({}), 0.0);
}

TEST(BoxStats, FiveNumberSummary) {
  std::vector<double> v;
  for (int i = 1; i <= 101; ++i) v.push_back(static_cast<double>(i));
  const BoxStats b = box_stats(v);
  EXPECT_DOUBLE_EQ(b.min, 1.0);
  EXPECT_DOUBLE_EQ(b.p25, 26.0);
  EXPECT_DOUBLE_EQ(b.median, 51.0);
  EXPECT_DOUBLE_EQ(b.p75, 76.0);
  EXPECT_DOUBLE_EQ(b.max, 101.0);
  EXPECT_EQ(b.count, 101u);
}

TEST(BoxStats, Empty) {
  const BoxStats b = box_stats({});
  EXPECT_EQ(b.count, 0u);
  EXPECT_EQ(b.median, 0.0);
}

TEST(SummaryRow, MinMedianAvgMax) {
  const std::vector<double> v{1.0, 2.0, 3.0, 10.0};
  const SummaryRow s = summary_row(v);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.median, 2.5);
  EXPECT_DOUBLE_EQ(s.avg, 4.0);
  EXPECT_DOUBLE_EQ(s.max, 10.0);
  EXPECT_EQ(s.count, 4u);
}

TEST(Gini, PerfectEquality) {
  const std::vector<double> v{5.0, 5.0, 5.0, 5.0};
  EXPECT_NEAR(gini(v), 0.0, 1e-12);
}

TEST(Gini, MaximalSkew) {
  // One holder of everything among n: G = (n-1)/n.
  const std::vector<double> v{0.0, 0.0, 0.0, 100.0};
  EXPECT_NEAR(gini(v), 0.75, 1e-12);
}

TEST(Gini, KnownIntermediate) {
  const std::vector<double> v{1.0, 3.0};
  // G = (2*(1*1+2*3)/(2*4)) - 3/2 = 14/8 - 1.5 = 0.25.
  EXPECT_NEAR(gini(v), 0.25, 1e-12);
}

TEST(Gini, DegenerateInputs) {
  EXPECT_EQ(gini({}), 0.0);
  const std::vector<double> one{4.0};
  EXPECT_EQ(gini(one), 0.0);
}

TEST(TopShareCurve, BasicShape) {
  // 10 publishers: one with 91 files, nine with 1 file.
  std::vector<double> contributions{91, 1, 1, 1, 1, 1, 1, 1, 1, 1};
  const std::vector<double> xs{10.0, 100.0};
  const auto curve = top_share_curve(contributions, xs);
  ASSERT_EQ(curve.size(), 2u);
  EXPECT_DOUBLE_EQ(curve[0].top_percent, 10.0);
  EXPECT_DOUBLE_EQ(curve[0].content_percent, 91.0);
  EXPECT_DOUBLE_EQ(curve[1].content_percent, 100.0);
}

TEST(TopShareCurve, MonotoneNonDecreasing) {
  std::vector<double> contributions;
  for (int i = 0; i < 200; ++i) contributions.push_back(i % 17 + 1.0);
  const std::vector<double> xs{1, 3, 10, 20, 40, 60, 80, 100};
  const auto curve = top_share_curve(contributions, xs);
  for (std::size_t i = 1; i < curve.size(); ++i) {
    EXPECT_GE(curve[i].content_percent, curve[i - 1].content_percent);
  }
  EXPECT_NEAR(curve.back().content_percent, 100.0, 1e-9);
}

TEST(TopShareCurve, EmptyPopulation) {
  const std::vector<double> xs{50.0};
  const auto curve = top_share_curve({}, xs);
  ASSERT_EQ(curve.size(), 1u);
  EXPECT_EQ(curve[0].content_percent, 0.0);
}

TEST(HistogramTest, CountsInRangeSamples) {
  Histogram h(0.0, 10.0, 5);
  h.add(0.5);  // bucket 0
  h.add(9.9);  // bucket 4
  h.add(5.0);  // bucket 2
  EXPECT_EQ(h.total(), 3u);
  EXPECT_EQ(h.observed(), 3u);
  EXPECT_EQ(h.counts[0], 1u);
  EXPECT_EQ(h.counts[2], 1u);
  EXPECT_EQ(h.counts[4], 1u);
  EXPECT_DOUBLE_EQ(h.fraction(2), 1.0 / 3.0);
  EXPECT_DOUBLE_EQ(h.fraction(7), 0.0);  // out of range index
}

TEST(HistogramTest, OutOfRangeGoesToUnderOverflowNotEdgeBins) {
  Histogram h(0.0, 10.0, 5);
  h.add(-3.0);  // below lo
  h.add(42.0);  // at/above hi
  h.add(10.0);  // hi itself is exclusive
  h.add(std::nan(""));
  h.add(5.0);  // the only in-range sample
  EXPECT_EQ(h.underflow, 1u);
  EXPECT_EQ(h.overflow, 2u);
  EXPECT_EQ(h.nan_count, 1u);
  EXPECT_EQ(h.counts[0], 0u);  // tails no longer corrupted
  EXPECT_EQ(h.counts[4], 0u);
  EXPECT_EQ(h.total(), 1u);
  EXPECT_EQ(h.observed(), 5u);
  // Fractions denominate over everything observed.
  EXPECT_DOUBLE_EQ(h.fraction(2), 0.2);
}

TEST(SamplePoisson, NonPositiveMeanIsZero) {
  Rng rng(1);
  EXPECT_EQ(sample_poisson(0.0, rng), 0u);
  EXPECT_EQ(sample_poisson(-3.5, rng), 0u);
  // Degenerate means consume no randomness: the stream is untouched.
  Rng fresh(1);
  EXPECT_EQ(rng.next(), fresh.next());
}

TEST(SamplePoisson, DeterministicGivenSeed) {
  Rng a(99), b(99);
  for (double mean : {0.3, 5.0, 63.9, 64.0, 500.0}) {
    EXPECT_EQ(sample_poisson(mean, a), sample_poisson(mean, b)) << mean;
  }
}

TEST(SamplePoisson, MeanMatchesBelowAndAboveCutoff) {
  // Pin the exact-inversion regime just under the cutoff and the normal
  // approximation just over it; both must track the requested mean.
  Rng rng(7);
  for (double mean :
       {kPoissonNormalCutoff - 1.0, kPoissonNormalCutoff + 1.0}) {
    const int trials = 4000;
    double sum = 0.0;
    for (int i = 0; i < trials; ++i) {
      sum += static_cast<double>(sample_poisson(mean, rng));
    }
    const double got = sum / trials;
    // Standard error is sqrt(mean/trials) ~ 0.13; allow 5 sigma.
    EXPECT_NEAR(got, mean, 0.65) << mean;
  }
}

TEST(SamplePoisson, CutoffBoundaryUsesNormalPath) {
  // At exactly the cutoff the normal approximation takes over: one
  // gaussian draw, never the open-ended multiplication loop. The variance
  // must still be ~mean (a constant would also pass the mean check).
  Rng rng(11);
  const double mean = kPoissonNormalCutoff;
  const int trials = 4000;
  std::vector<double> draws;
  draws.reserve(trials);
  for (int i = 0; i < trials; ++i) {
    draws.push_back(static_cast<double>(sample_poisson(mean, rng)));
  }
  // Sample variance.
  const double m = btpub::mean(draws);
  double acc = 0.0;
  for (const double d : draws) acc += (d - m) * (d - m);
  EXPECT_NEAR(acc / (trials - 1), mean, mean * 0.25);
}

}  // namespace
}  // namespace btpub
