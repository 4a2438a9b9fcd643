// Appendix-A estimator: discovery probability, session reconstruction,
// seeding metrics.
#include "analysis/session.hpp"
#include "dataset_fixture.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace btpub {
namespace {

TEST(DiscoveryProbability, PaperOperatingPoint) {
  // Appendix A: W=50, N=165 -> m=13 queries give P > 0.99.
  EXPECT_GT(discovery_probability(50, 165, 13), 0.99);
  EXPECT_LT(discovery_probability(50, 165, 12), 0.99);
  EXPECT_EQ(queries_for_probability(50, 165, 0.99), 13u);
}

TEST(DiscoveryProbability, Monotonicity) {
  double prev = 0.0;
  for (std::size_t m = 1; m <= 30; ++m) {
    const double p = discovery_probability(50, 165, m);
    EXPECT_GT(p, prev);
    prev = p;
  }
  EXPECT_GT(discovery_probability(100, 165, 5), discovery_probability(50, 165, 5));
}

TEST(DiscoveryProbability, Extremes) {
  EXPECT_EQ(discovery_probability(200, 100, 1), 1.0);  // W >= N: certain
  EXPECT_EQ(discovery_probability(0, 100, 10), 0.0);
  EXPECT_EQ(discovery_probability(50, 0, 10), 0.0);
  EXPECT_EQ(queries_for_probability(200, 100, 0.99), 1u);
}

TEST(QueriesForProbability, DegenerateInputsReturnSentinelNotUB) {
  // w <= 0: the publisher can never appear in a reply window; the naive
  // formula divides by log(1) == 0 and casts inf to size_t (UB).
  EXPECT_EQ(queries_for_probability(0, 165, 0.99), kQueriesUnreachable);
  EXPECT_EQ(queries_for_probability(-5, 165, 0.99), kQueriesUnreachable);
  // Empty or negative swarm: nothing to discover.
  EXPECT_EQ(queries_for_probability(50, 0, 0.99), kQueriesUnreachable);
  EXPECT_EQ(queries_for_probability(50, -1, 0.99), kQueriesUnreachable);
  // NaN anywhere: unanswerable.
  const double nan = std::nan("");
  EXPECT_EQ(queries_for_probability(nan, 165, 0.99), kQueriesUnreachable);
  EXPECT_EQ(queries_for_probability(50, nan, 0.99), kQueriesUnreachable);
  EXPECT_EQ(queries_for_probability(50, 165, nan), kQueriesUnreachable);
  // A nonpositive target is met before the first query.
  EXPECT_EQ(queries_for_probability(50, 165, 0.0), 0u);
  EXPECT_EQ(queries_for_probability(50, 165, -0.5), 0u);
  // target >= 1 is clamped to just below certainty, still finite.
  EXPECT_LT(queries_for_probability(50, 165, 1.0), kQueriesUnreachable);
}

class ProbabilityFormula
    : public ::testing::TestWithParam<std::tuple<double, double, std::size_t>> {};

TEST_P(ProbabilityFormula, MatchesClosedForm) {
  const auto [w, n, m] = GetParam();
  const double expected = 1.0 - std::pow(1.0 - w / n, static_cast<double>(m));
  EXPECT_NEAR(discovery_probability(w, n, m), expected, 1e-12);
}

INSTANTIATE_TEST_SUITE_P(
    Points, ProbabilityFormula,
    ::testing::Values(std::make_tuple(50.0, 165.0, 1u),
                      std::make_tuple(50.0, 165.0, 13u),
                      std::make_tuple(200.0, 1000.0, 5u),
                      std::make_tuple(10.0, 2000.0, 40u)));

TEST(ReconstructSessions, EmptyInput) {
  EXPECT_TRUE(reconstruct_sessions({}, hours(4)).empty());
}

TEST(ReconstructSessions, SingleSighting) {
  const std::vector<SimTime> sightings{hours(2)};
  const auto sessions = reconstruct_sessions(sightings, hours(4), minutes(15));
  ASSERT_EQ(sessions.size(), 1u);
  EXPECT_EQ(sessions[0].start, hours(2));
  EXPECT_EQ(sessions[0].end, hours(2) + minutes(15));
}

TEST(ReconstructSessions, GapSplitsSessions) {
  const std::vector<SimTime> sightings{0, hours(1), hours(2),
                                       hours(8), hours(9)};
  const auto sessions = reconstruct_sessions(sightings, hours(4), minutes(15));
  ASSERT_EQ(sessions.size(), 2u);
  EXPECT_EQ(sessions[0].start, 0);
  EXPECT_EQ(sessions[0].end, hours(2) + minutes(15));
  EXPECT_EQ(sessions[1].start, hours(8));
  EXPECT_EQ(sessions[1].end, hours(9) + minutes(15));
}

TEST(ReconstructSessions, GapExactlyAtThresholdDoesNotSplit) {
  const std::vector<SimTime> sightings{0, hours(4)};
  EXPECT_EQ(reconstruct_sessions(sightings, hours(4)).size(), 1u);
  const std::vector<SimTime> beyond{0, hours(4) + 1};
  EXPECT_EQ(reconstruct_sessions(beyond, hours(4)).size(), 2u);
}

TEST(ReconstructSessions, ThresholdSensitivity) {
  // The paper checked 2h/4h/6h thresholds; a 3h gap merges at 4h/6h and
  // splits at 2h.
  const std::vector<SimTime> sightings{0, hours(3), hours(6)};
  EXPECT_EQ(reconstruct_sessions(sightings, hours(2)).size(), 3u);
  EXPECT_EQ(reconstruct_sessions(sightings, hours(4)).size(), 1u);
  EXPECT_EQ(reconstruct_sessions(sightings, hours(6)).size(), 1u);
}

TEST(ReconstructSessions, ShuffledInputMatchesSorted) {
  // Regression: the sweep assumed ascending input; a merged multi-vantage
  // timeline arriving out of order fabricated a phantom session split at
  // every backwards jump. Sorted and shuffled inputs must now reconstruct
  // identical intervals.
  const std::vector<SimTime> sorted{0,        minutes(30), hours(1),
                                    hours(8), hours(9),    hours(20)};
  const auto expected = reconstruct_sessions(sorted, hours(4), minutes(15));
  ASSERT_EQ(expected.size(), 3u);

  std::vector<SimTime> shuffled = sorted;
  Rng rng(7);
  for (int round = 0; round < 20; ++round) {
    rng.shuffle(shuffled);
    const auto sessions = reconstruct_sessions(shuffled, hours(4), minutes(15));
    ASSERT_EQ(sessions.size(), expected.size());
    for (std::size_t i = 0; i < sessions.size(); ++i) {
      EXPECT_EQ(sessions[i].start, expected[i].start);
      EXPECT_EQ(sessions[i].end, expected[i].end);
    }
  }
}

TEST(ReconstructSessions, ReversedInputNoPhantomSessions) {
  // The worst case of the old bug: strictly descending sightings split into
  // one phantom session per element.
  const std::vector<SimTime> reversed{hours(2), hours(1), 0};
  const auto sessions = reconstruct_sessions(reversed, hours(4), minutes(15));
  ASSERT_EQ(sessions.size(), 1u);
  EXPECT_EQ(sessions[0].start, 0);
  EXPECT_EQ(sessions[0].end, hours(2) + minutes(15));
}

TEST(ReconstructSessions, NegativeQueryGapClampedToZero) {
  // A negative gap would emit end < start intervals whose negative lengths
  // *subtract* seeding time downstream; it is clamped to zero instead.
  const std::vector<SimTime> sightings{hours(2)};
  const auto sessions = reconstruct_sessions(sightings, hours(4), -minutes(15));
  ASSERT_EQ(sessions.size(), 1u);
  EXPECT_EQ(sessions[0].start, hours(2));
  EXPECT_EQ(sessions[0].end, hours(2));
  EXPECT_EQ(sessions[0].length(), 0);
}

TEST(UnionLength, ZeroLengthIntervals) {
  // Zero-length intervals contribute nothing but must not corrupt the
  // cover sweep around them.
  EXPECT_EQ(union_length({{5, 5}}), 0);
  EXPECT_EQ(union_length({{5, 5}, {5, 5}}), 0);
  EXPECT_EQ(union_length({{0, 10}, {5, 5}}), 10);        // nested point
  EXPECT_EQ(union_length({{5, 5}, {0, 10}}), 10);
  EXPECT_EQ(union_length({{0, 0}, {0, 10}, {10, 10}}), 10);
  EXPECT_EQ(union_length({{0, 5}, {7, 7}, {9, 12}}), 8);  // point in a gap
}

TEST(UnionLength, DisjointAndOverlapping) {
  EXPECT_EQ(union_length({}), 0);
  EXPECT_EQ(union_length({{0, 10}}), 10);
  EXPECT_EQ(union_length({{0, 10}, {20, 30}}), 20);
  EXPECT_EQ(union_length({{0, 10}, {5, 15}}), 15);
  EXPECT_EQ(union_length({{0, 30}, {5, 15}}), 30);      // nested
  EXPECT_EQ(union_length({{5, 15}, {0, 10}}), 15);      // unsorted input
  EXPECT_EQ(union_length({{0, 10}, {10, 20}}), 20);     // touching
}

class SeedingMetricsTest : public DatasetFixture {
 protected:
  SeedingMetricsTest() {
    dataset_.style = DatasetStyle::Pb10;
    // Torrent 0: publisher sighted continuously for ~6h.
    dataset_.torrents.emplace_back();
    dataset_.downloaders.emplace_back();
    std::vector<SimTime> s0;
    for (int i = 0; i <= 24; ++i) s0.push_back(i * minutes(15));
    dataset_.publisher_sightings.push_back(std::move(s0));
    // Torrent 1: overlaps the first 2 hours.
    dataset_.torrents.emplace_back();
    dataset_.downloaders.emplace_back();
    std::vector<SimTime> s1;
    for (int i = 0; i <= 8; ++i) s1.push_back(i * minutes(15));
    dataset_.publisher_sightings.push_back(std::move(s1));
    // Torrent 2: no sightings (publisher never identified).
    dataset_.torrents.emplace_back();
    dataset_.downloaders.emplace_back();
    dataset_.publisher_sightings.emplace_back();
  }
};

TEST_F(SeedingMetricsTest, PerTorrentAndAggregates) {
  const std::vector<std::size_t> indices{0, 1, 2};
  const SeedingMetrics m = seeding_metrics(view(), indices, hours(4));
  EXPECT_EQ(m.torrents_with_data, 2u);
  // Torrent 0 session: 6h15m; torrent 1: 2h15m; avg = 4.25h.
  EXPECT_NEAR(m.avg_seeding_hours, 4.25, 0.01);
  // Union = 6h15m (torrent 1 nested in torrent 0).
  EXPECT_NEAR(m.aggregated_session_hours, 6.25, 0.01);
  EXPECT_NEAR(m.avg_parallel_torrents, 8.5 / 6.25, 0.01);
}

TEST_F(SeedingMetricsTest, SingleSightingTorrentCountsOneQueryGapSession) {
  // A publisher seen exactly once is present for one nominal query gap —
  // never zero hours, and never a phantom extra session.
  dataset_.torrents.emplace_back();
  dataset_.downloaders.emplace_back();
  dataset_.publisher_sightings.push_back({days(1)});
  const std::vector<std::size_t> indices{3};
  const SeedingMetrics m = seeding_metrics(view(), indices, hours(4));
  EXPECT_EQ(m.torrents_with_data, 1u);
  EXPECT_NEAR(m.avg_seeding_hours, 0.25, 1e-9);          // 15 min
  EXPECT_NEAR(m.aggregated_session_hours, 0.25, 1e-9);
  EXPECT_NEAR(m.avg_parallel_torrents, 1.0, 1e-9);
}

TEST_F(SeedingMetricsTest, NoDataPublisher) {
  const std::vector<std::size_t> indices{2};
  const SeedingMetrics m = seeding_metrics(view(), indices, hours(4));
  EXPECT_EQ(m.torrents_with_data, 0u);
  EXPECT_EQ(m.avg_seeding_hours, 0.0);
  EXPECT_EQ(m.aggregated_session_hours, 0.0);
}

}  // namespace
}  // namespace btpub
