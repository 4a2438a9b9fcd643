// Property & differential tests: randomised inputs checked against
// brute-force oracles and robustness invariants.
#include <gtest/gtest.h>

#include <algorithm>

#include "analysis/session.hpp"
#include "bencode/bencode.hpp"
#include "bencode_tree.hpp"
#include "swarm/swarm.hpp"

namespace btpub {
namespace {

// ---- Swarm sweep vs brute force -------------------------------------------

class SwarmDifferential : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SwarmDifferential, SweepMatchesBruteForce) {
  Rng rng(GetParam());
  Swarm swarm(Sha1::hash("prop" + std::to_string(GetParam())), 64, 0);
  std::vector<PeerSession> sessions;
  const std::size_t n = 200 + rng.index(200);
  for (std::size_t i = 0; i < n; ++i) {
    PeerSession s;
    s.endpoint = Endpoint{IpAddress(0x0A000000u + static_cast<std::uint32_t>(i)),
                          6881};
    s.arrive = rng.uniform_int(0, hours(100));
    s.depart = s.arrive + rng.uniform_int(1, hours(30));
    if (rng.chance(0.6)) {
      // Completion anywhere around the session (before/inside/after).
      s.complete_at = s.arrive + rng.uniform_int(-hours(1), hours(40));
    }
    sessions.push_back(s);
    swarm.add_session(s);
  }
  swarm.finalize();

  // Random query times, including backwards jumps (the rewind slow path).
  for (int q = 0; q < 60; ++q) {
    const SimTime t = rng.uniform_int(-hours(1), hours(140));
    std::uint32_t seeders = 0, leechers = 0;
    for (const PeerSession& s : sessions) {
      if (s.depart <= s.arrive) continue;  // dropped by add_session
      if (!s.present_at(t)) continue;
      if (s.seeder_at(t)) {
        ++seeders;
      } else {
        ++leechers;
      }
    }
    const SwarmCounts counts = swarm.counts_at(t);
    ASSERT_EQ(counts.seeders, seeders) << "t=" << t;
    ASSERT_EQ(counts.leechers, leechers) << "t=" << t;
    // A sample as large as the swarm is every present peer: it must agree
    // with the count and contain only present peers.
    Rng draw(0);
    const auto present = swarm.sample_peers(t, sessions.size(), draw);
    ASSERT_EQ(present.size(), seeders + leechers);
    for (const PeerSession* p : present) ASSERT_TRUE(p->present_at(t));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SwarmDifferential,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u));

// ---- union_length vs brute force -------------------------------------------

class UnionDifferential : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(UnionDifferential, MatchesBitmapOracle) {
  Rng rng(GetParam());
  std::vector<Interval> intervals;
  const std::size_t n = 1 + rng.index(20);
  for (std::size_t i = 0; i < n; ++i) {
    const SimTime start = rng.uniform_int(0, 500);
    intervals.push_back(Interval{start, start + rng.uniform_int(1, 100)});
  }
  // Brute force: mark covered seconds.
  std::vector<bool> covered(700, false);
  for (const Interval& iv : intervals) {
    for (SimTime t = iv.start; t < iv.end; ++t) covered[static_cast<std::size_t>(t)] = true;
  }
  const auto expected = static_cast<SimDuration>(
      std::count(covered.begin(), covered.end(), true));
  EXPECT_EQ(union_length(intervals), expected);
}

INSTANTIATE_TEST_SUITE_P(Seeds, UnionDifferential,
                         ::testing::Values(11u, 12u, 13u, 14u, 15u, 16u));

// ---- Session reconstruction invariants --------------------------------------

class SessionProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SessionProperty, SessionsCoverEverySightingExactlyOnce) {
  Rng rng(GetParam());
  std::vector<SimTime> sightings;
  SimTime t = 0;
  const std::size_t n = 1 + rng.index(300);
  for (std::size_t i = 0; i < n; ++i) {
    t += rng.uniform_int(minutes(1), hours(9));
    sightings.push_back(t);
  }
  const SimDuration gap = hours(4);
  const auto sessions = reconstruct_sessions(sightings, gap, minutes(15));
  ASSERT_FALSE(sessions.empty());
  // Invariants: sessions are ordered, non-overlapping, separated by > gap,
  // and every sighting falls into exactly one session.
  for (std::size_t i = 0; i < sessions.size(); ++i) {
    EXPECT_LT(sessions[i].start, sessions[i].end);
    if (i > 0) {
      EXPECT_GT(sessions[i].start, sessions[i - 1].end + gap - minutes(15) - 1);
    }
  }
  for (const SimTime s : sightings) {
    int containing = 0;
    for (const Interval& session : sessions) {
      if (session.contains(s)) ++containing;
    }
    EXPECT_EQ(containing, 1) << "sighting " << s;
  }
  // Total session time never exceeds span + one trailing query gap.
  SimDuration total = 0;
  for (const Interval& session : sessions) total += session.length();
  EXPECT_LE(total, sightings.back() - sightings.front() + minutes(15));
}

INSTANTIATE_TEST_SUITE_P(Seeds, SessionProperty,
                         ::testing::Values(21u, 22u, 23u, 24u));

// ---- Bencode robustness ------------------------------------------------------

bencode::Value random_value(Rng& rng, int depth) {
  const double u = rng.uniform();
  if (depth >= 4 || u < 0.35) {
    return bencode::Value(rng.uniform_int(-1000000, 1000000));
  }
  if (u < 0.6) {
    std::string s;
    const std::size_t n = rng.index(20);
    for (std::size_t i = 0; i < n; ++i) {
      s.push_back(static_cast<char>(rng.uniform_int(0, 255)));
    }
    return bencode::Value(std::move(s));
  }
  if (u < 0.8) {
    bencode::List list;
    const std::size_t n = rng.index(5);
    for (std::size_t i = 0; i < n; ++i) list.push_back(random_value(rng, depth + 1));
    return bencode::Value(std::move(list));
  }
  bencode::Dict dict;
  const std::size_t n = rng.index(5);
  for (std::size_t i = 0; i < n; ++i) {
    std::string key = "k";
    key += std::to_string(rng.uniform_int(0, 1000));
    dict.emplace(std::move(key), random_value(rng, depth + 1));
  }
  return bencode::Value(std::move(dict));
}

class BencodeProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BencodeProperty, RandomTreesRoundTrip) {
  Rng rng(GetParam());
  for (int i = 0; i < 100; ++i) {
    const bencode::Value original = random_value(rng, 0);
    const std::string encoded = bencode::encode(original);
    const bencode::Value decoded = bencode::decode(encoded);
    ASSERT_EQ(decoded, original);
    ASSERT_EQ(bencode::encode(decoded), encoded);  // canonical fixed point
  }
}

TEST_P(BencodeProperty, RandomBytesNeverCrash) {
  Rng rng(GetParam() + 1000);
  for (int i = 0; i < 500; ++i) {
    std::string junk;
    const std::size_t n = rng.index(40);
    for (std::size_t k = 0; k < n; ++k) {
      // Bias toward structural bytes to reach deep parser paths.
      static constexpr char kAlphabet[] = "ilde0123456789:-x";
      junk.push_back(kAlphabet[rng.index(sizeof(kAlphabet) - 1)]);
    }
    try {
      const bencode::Value v = bencode::decode(junk);
      // If it parsed, it must re-encode to the same bytes (canonical form).
      EXPECT_EQ(bencode::encode(v), junk);
    } catch (const bencode::Error&) {
      // Expected for most inputs.
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BencodeProperty,
                         ::testing::Values(31u, 32u, 33u));

// ---- Tracker sampling uniformity ---------------------------------------------

TEST(SamplingProperty, NoPositionBias) {
  // Peers added in a fixed order must be sampled uniformly regardless of
  // their position in the internal present-vector.
  Swarm swarm(Sha1::hash("bias"), 16, 0);
  for (std::uint32_t i = 0; i < 100; ++i) {
    PeerSession s;
    s.endpoint = Endpoint{IpAddress(0x0C000000u + i), 1};
    s.arrive = 0;
    s.depart = hours(10);
    swarm.add_session(s);
  }
  swarm.finalize();
  Rng rng(9);
  std::vector<int> hits(100, 0);
  const int rounds = 3000;
  for (int round = 0; round < rounds; ++round) {
    for (const PeerSession* p : swarm.sample_peers(1, 20, rng)) {
      ++hits[p->endpoint.ip.value() - 0x0C000000u];
    }
  }
  // Expected 600 hits each; flag any peer outside a generous band.
  for (int h : hits) {
    EXPECT_GT(h, 450);
    EXPECT_LT(h, 770);
  }
}

}  // namespace
}  // namespace btpub
