// Probabilistic sketches: HyperLogLog accuracy (including saturation at
// 10M+ distinct IPs), merge semantics, and count-min guarantees.
#include "analysis/streaming/sketch.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <vector>

#include "net/ip.hpp"
#include "util/rng.hpp"

namespace btpub {
namespace {

TEST(HyperLogLog, EmptyEstimatesZero) {
  HyperLogLog hll(12);
  EXPECT_TRUE(hll.empty());
  EXPECT_EQ(hll.estimate(), 0.0);
}

TEST(HyperLogLog, ExactInLinearCountingRange) {
  // Small cardinalities fall in the linear-counting regime, where the
  // estimate is near-exact — the regime every per-torrent sketch lives in.
  HyperLogLog hll(12);
  for (std::uint64_t i = 0; i < 100; ++i) hll.add(i);
  EXPECT_NEAR(hll.estimate(), 100.0, 5.0);  // a few register collisions
  // Duplicates never move the estimate.
  const double before = hll.estimate();
  for (std::uint64_t i = 0; i < 100; ++i) hll.add(i);
  EXPECT_EQ(hll.estimate(), before);
}

TEST(HyperLogLog, MidRangeWithinThreeSigma) {
  HyperLogLog hll(12);
  const std::size_t n = 100000;
  for (std::uint64_t i = 0; i < n; ++i) hll.add(i * 0x9E3779B9ULL + 12345);
  const double err = std::abs(hll.estimate() - static_cast<double>(n)) /
                     static_cast<double>(n);
  EXPECT_LT(err, 3.0 * hll.relative_error());
}

TEST(HyperLogLog, SaturationTenMillionIps) {
  // The 10M+ distinct-IP target of the streaming layer: precision 14
  // (16 KiB — the memory bound is the whole point) must stay within its
  // documented error band instead of degrading, as an exact set never
  // could at this scale without ~80 MB.
  HyperLogLog hll(14);
  const std::size_t n = 10'000'000;
  for (std::uint64_t i = 0; i < n; ++i) hll.add(i);
  const double err = std::abs(hll.estimate() - static_cast<double>(n)) /
                     static_cast<double>(n);
  EXPECT_LT(err, 4.0 * hll.relative_error());  // 4 sigma ~= 1.6% at p=14
}

TEST(HyperLogLog, MergeEqualsUnion) {
  HyperLogLog a(12), b(12), u(12);
  for (std::uint64_t i = 0; i < 5000; ++i) {
    a.add(i);
    u.add(i);
  }
  for (std::uint64_t i = 2500; i < 7500; ++i) {
    b.add(i);
    u.add(i);
  }
  a.merge(b);
  EXPECT_EQ(a.estimate(), u.estimate());  // identical registers, exactly
}

TEST(HyperLogLog, MergeRejectsMismatchedSketches) {
  HyperLogLog a(12), b(13), c(12, /*salt=*/7);
  EXPECT_THROW(a.merge(b), std::invalid_argument);
  EXPECT_THROW(a.merge(c), std::invalid_argument);
}

TEST(HyperLogLog, SaltChangesHashingNotAccuracy) {
  HyperLogLog a(12, 1), b(12, 2);
  for (std::uint64_t i = 0; i < 10000; ++i) {
    a.add(i);
    b.add(i);
  }
  EXPECT_NEAR(a.estimate(), 10000.0, 3.0 * a.relative_error() * 10000.0);
  EXPECT_NEAR(b.estimate(), 10000.0, 3.0 * b.relative_error() * 10000.0);
}

TEST(HyperLogLog, PrecisionClamped) {
  EXPECT_EQ(HyperLogLog(1).register_count(), 16u);
  EXPECT_EQ(HyperLogLog(30).register_count(), std::size_t{1} << 18);
}

TEST(HyperLogLog, EstimatesPinnedBitForBit) {
  // Snapshot digests hash these doubles, so the estimator must keep its
  // exact summation: values captured before 2^-r became a table lookup.
  struct Case {
    int precision;
    std::uint64_t n;
    double estimate;
  };
  const Case cases[] = {
      {4, 50, 0x1.41f08af70bacep+5},     {4, 200000, 0x1.9b3e021266099p+17},
      {12, 50, 0x1.8a5d149cb8a0bp+5},    {12, 5000, 0x1.3bc942bd7718ep+12},
      {12, 200000, 0x1.8ff13d3bca6b3p+17}, {14, 5000, 0x1.3af44f658cf22p+12},
      {14, 200000, 0x1.84d0e4da62183p+17},
  };
  for (const Case& c : cases) {
    HyperLogLog hll(c.precision, /*salt=*/77);
    for (std::uint64_t i = 0; i < c.n; ++i) hll.add(i * 0x9E3779B97F4A7C15ULL + 3);
    EXPECT_EQ(hll.estimate(), c.estimate) << "p" << c.precision << " n" << c.n;
  }
}

TEST(CountMinSketch, CountsPinnedAtPowerOfTwoAndOtherWidths) {
  // A skewed, seeded stream. Width 4096 picks columns by mask, width 1000
  // by modulo; both must land every add where h % width did. Values
  // captured before the mask and the row-0 total.
  struct Case {
    std::size_t width;
    std::uint64_t count_sum;
    std::uint64_t count_fold;
    std::uint64_t hottest;
  };
  for (const Case& c : {Case{4096, 41074, 0x240101afee594b9fULL, 730},
                        Case{1000, 73491, 0x76ef01197677d4a0ULL, 734}}) {
    CountMinSketch cms(c.width, 4, /*salt=*/0x5EED);
    Rng rng(2026);
    std::vector<std::uint64_t> keys;
    for (int k = 0; k < 3000; ++k) keys.push_back(rng.next());
    for (int i = 0; i < 20000; ++i) {
      const auto index = static_cast<std::size_t>(rng.uniform_int(0, 2999));
      cms.add(keys[index * index / 3000],
              static_cast<std::uint64_t>(rng.uniform_int(1, 3)));
    }
    std::uint64_t sum = 0;
    std::uint64_t fold = 0xcbf29ce484222325ULL;  // FNV-1a over the counts
    for (const std::uint64_t key : keys) {
      sum += cms.count(key);
      fold = (fold ^ cms.count(key)) * 0x100000001b3ULL;
    }
    EXPECT_EQ(cms.total(), 40042u) << c.width;
    EXPECT_EQ(sum, c.count_sum) << c.width;
    EXPECT_EQ(fold, c.count_fold) << c.width;
    EXPECT_EQ(cms.count(keys[0]), c.hottest) << c.width;
  }
}

TEST(CountMinSketch, NeverUnderestimates) {
  CountMinSketch cms(512, 4);
  Rng rng(99);
  std::vector<std::pair<std::uint64_t, std::uint64_t>> truth;
  for (int k = 0; k < 50; ++k) {
    const auto key = static_cast<std::uint64_t>(rng.uniform_int(0, 1 << 30));
    const auto count = static_cast<std::uint64_t>(rng.uniform_int(1, 200));
    for (std::uint64_t i = 0; i < count; ++i) cms.add(key);
    truth.emplace_back(key, count);
  }
  for (const auto& [key, count] : truth) {
    EXPECT_GE(cms.count(key), count);
  }
}

TEST(CountMinSketch, HeavyHitterSurvivesNoise) {
  // The announce-rate use case: one flooding IP among broad background
  // noise must report close to its true count (overestimate bounded by
  // epsilon * total mass).
  CountMinSketch cms(4096, 4);
  const std::uint64_t heavy = 0xC0FFEEULL;
  for (int i = 0; i < 50000; ++i) cms.add(heavy);
  for (std::uint64_t i = 0; i < 100000; ++i) cms.add(i * 31 + 7);
  EXPECT_GE(cms.count(heavy), 50000u);
  EXPECT_LE(static_cast<double>(cms.count(heavy)),
            50000.0 + cms.epsilon() * static_cast<double>(cms.total()));
}

TEST(CountMinSketch, AddOrderDoesNotChangeCounts) {
  // Cells are plain sums, so the final state is a pure function of the
  // observation multiset — the property that lets one classifier take
  // both vantages' observations interleaved.
  CountMinSketch forward(1024, 4);
  CountMinSketch backward(1024, 4);
  constexpr std::uint64_t kAdds = 100000;
  for (std::uint64_t i = 0; i < kAdds; ++i) forward.add(i % 97, 1 + i % 3);
  for (std::uint64_t i = kAdds; i-- > 0;) backward.add(i % 97, 1 + i % 3);
  EXPECT_EQ(forward.total(), backward.total());
  EXPECT_EQ(forward.total(), kAdds / 3 * 6 + 1);  // 1+2+3 per triple, then a 1
  for (std::uint64_t key = 0; key < 200; ++key) {
    EXPECT_EQ(forward.count(key), backward.count(key)) << key;
  }
}

TEST(CountMinSketch, DegenerateGeometryClamped) {
  CountMinSketch cms(0, 0);
  EXPECT_EQ(cms.width(), 1u);
  EXPECT_EQ(cms.depth(), 1u);
  cms.add(42);
  EXPECT_EQ(cms.count(42), 1u);
}

TEST(Mix64, AvalanchesAndIsDeterministic) {
  EXPECT_EQ(mix64(1), mix64(1));
  EXPECT_NE(mix64(1), mix64(2));
  // Single-bit input flips move many output bits (weak avalanche check).
  const std::uint64_t a = mix64(0x1000), b = mix64(0x1001);
  EXPECT_GE(std::popcount(a ^ b), 16);
}

}  // namespace
}  // namespace btpub
