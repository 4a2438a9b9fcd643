// Swarm demand generator and the peer-wire probe network view.
#include <gtest/gtest.h>

#include <cmath>

#include "swarm/generator.hpp"
#include "swarm/network.hpp"
#include "torrent/wire.hpp"

namespace btpub {
namespace {

class GeneratorTest : public ::testing::Test {
 protected:
  GeneratorTest()
      : catalog_(IspCatalog::standard(8)),
        consumers_(catalog_),
        generator_(consumers_) {}

  SwarmSpec genuine_spec() {
    SwarmSpec spec;
    spec.birth = 0;
    spec.expected_downloads = 200.0;
    spec.arrivals_end = days(10);
    return spec;
  }

  IspCatalog catalog_;
  ConsumerPool consumers_;
  SwarmGenerator generator_;
};

TEST_F(GeneratorTest, TruncatedMeanFormula) {
  SwarmSpec spec = genuine_spec();
  // T = 10 days, tau = 1.5 days: mass = 1 - e^(-10/1.5).
  EXPECT_EQ(spec.decay_tau(), kDecayTau);
  EXPECT_NEAR(SwarmGenerator::truncated_mean(spec),
              200.0 * (1 - std::exp(-10.0 / 1.5)), 0.1);
  spec.arrivals_end = kDecayTau;
  EXPECT_NEAR(SwarmGenerator::truncated_mean(spec), 200.0 * (1 - std::exp(-1.0)),
              0.1);
  // A fake swarm decays at the faster fake tau.
  spec.fake = true;
  EXPECT_EQ(spec.decay_tau(), kFakeDecayTau);
  spec.arrivals_end = kFakeDecayTau;
  EXPECT_NEAR(SwarmGenerator::truncated_mean(spec), 200.0 * (1 - std::exp(-1.0)),
              0.1);
  spec.arrivals_end = 0;
  EXPECT_EQ(SwarmGenerator::truncated_mean(spec), 0.0);
}

TEST_F(GeneratorTest, ArrivalCountNearMean) {
  Rng rng(2);
  double total = 0;
  for (int trial = 0; trial < 30; ++trial) {
    std::string key = "g";
    key += std::to_string(trial);
    Swarm swarm(Sha1::hash(key), 32, 0);
    total += static_cast<double>(generator_.generate(swarm, genuine_spec(), rng));
  }
  EXPECT_NEAR(total / 30.0, 200.0, 15.0);
}

TEST_F(GeneratorTest, ArrivalsWithinWindowAndDecaying) {
  Rng rng(3);
  Swarm swarm(Sha1::hash("decay"), 32, 0);
  const SwarmSpec spec = genuine_spec();
  generator_.generate(swarm, spec, rng);
  std::size_t early = 0, late = 0;
  for (const PeerSession& s : swarm.sessions()) {
    ASSERT_GE(s.arrive, spec.birth);
    ASSERT_LT(s.arrive, spec.arrivals_end);
    if (s.arrive < kDecayTau) ++early;
    if (s.arrive >= 5 * kDecayTau) ++late;
  }
  // Exponential decay: ~63% within the first tau, ~nothing after 5 tau.
  EXPECT_GT(early, swarm.session_count() / 2);
  EXPECT_LT(late, swarm.session_count() / 20);
}

TEST_F(GeneratorTest, GenuinePeersSometimesSeed) {
  Rng rng(4);
  Swarm swarm(Sha1::hash("seeds"), 32, 0);
  generator_.generate(swarm, genuine_spec(), rng);
  std::size_t completed = 0, aborted = 0;
  for (const PeerSession& s : swarm.sessions()) {
    if (s.complete_at < s.depart) {
      ++completed;
      EXPECT_GT(s.depart, s.complete_at);  // lingers at least briefly
    } else {
      ++aborted;
    }
  }
  EXPECT_GT(completed, 0u);
  EXPECT_GT(aborted, 0u);
  EXPECT_NEAR(static_cast<double>(aborted) / swarm.session_count(),
              kAbortProbability, 0.08);
}

TEST_F(GeneratorTest, FakeSwarmNobodyCompletes) {
  Rng rng(5);
  Swarm swarm(Sha1::hash("fake"), 32, 0);
  SwarmSpec spec = genuine_spec();
  spec.fake = true;
  generator_.generate(swarm, spec, rng);
  ASSERT_GT(swarm.session_count(), 0u);
  for (const PeerSession& s : swarm.sessions()) {
    EXPECT_GE(s.complete_at, s.depart);  // never becomes a seeder
    EXPECT_LE(s.depart - s.arrive, minutes(40) + 1);  // bails quickly
  }
}

TEST_F(GeneratorTest, NatFractionRespected) {
  Rng rng(6);
  SwarmSpec spec = genuine_spec();
  spec.expected_downloads = 3000;
  Swarm swarm(Sha1::hash("nat"), 32, 0);
  generator_.generate(swarm, spec, rng);
  std::size_t nat = 0;
  for (const PeerSession& s : swarm.sessions()) nat += s.nat;
  EXPECT_NEAR(static_cast<double>(nat) / swarm.session_count(),
              kDownloaderNatFraction, 0.03);
}

TEST_F(GeneratorTest, ConsumerPoolStickyBias) {
  ConsumerPool pool(catalog_);
  const Endpoint sticky{IpAddress(9, 9, 9, 9), 1234};
  pool.add_sticky(sticky, 1.0);
  Rng rng(8);
  int hits = 0;
  for (int i = 0; i < 40000; ++i) {
    if (pool.draw(rng) == sticky) ++hits;
  }
  EXPECT_NEAR(hits / 40000.0, kStickyConsumerBias, 0.003);
}

TEST_F(GeneratorTest, ConsumerPoolWeights) {
  ConsumerPool pool(catalog_);
  const Endpoint a{IpAddress(1, 1, 1, 1), 1};
  const Endpoint b{IpAddress(2, 2, 2, 2), 2};
  pool.add_sticky(a, 1.0);
  pool.add_sticky(b, 3.0);
  Rng rng(10);
  int a_hits = 0;
  int b_hits = 0;
  for (int i = 0; i < 200000; ++i) {
    const Endpoint e = pool.draw(rng);
    a_hits += e == a;
    b_hits += e == b;
  }
  // Among the sticky draws, b comes up three times as often as a.
  ASSERT_GT(a_hits + b_hits, 2000);
  EXPECT_NEAR(static_cast<double>(b_hits) / (a_hits + b_hits), 0.75, 0.03);
}

TEST_F(GeneratorTest, FreshConsumersResolveInGeoDb) {
  Rng rng(11);
  for (int i = 0; i < 200; ++i) {
    const Endpoint e = consumers_.draw(rng);
    ASSERT_TRUE(catalog_.db().lookup(e.ip).has_value());
    EXPECT_GT(e.port, 1024);
  }
}

// --- SwarmNetwork probes ---

class NetworkTest : public ::testing::Test {
 protected:
  NetworkTest() : swarm_(Sha1::hash("probe"), 40, 0) {
    PeerSession seeder;
    seeder.endpoint = Endpoint{IpAddress(10, 0, 0, 1), 6881};
    seeder.arrive = 0;
    seeder.depart = 1000;
    seeder.complete_at = 0;
    seeder.is_publisher = true;
    swarm_.add_session(seeder);

    PeerSession natted;
    natted.endpoint = Endpoint{IpAddress(10, 0, 0, 2), 6881};
    natted.arrive = 0;
    natted.depart = 1000;
    natted.nat = true;
    swarm_.add_session(natted);

    PeerSession leecher;
    leecher.endpoint = Endpoint{IpAddress(10, 0, 0, 3), 6881};
    leecher.arrive = 0;
    leecher.depart = 1000;
    leecher.complete_at = 500;
    swarm_.add_session(leecher);

    swarm_.finalize();
    network_.register_swarm(swarm_);
  }

  Swarm swarm_;
  SwarmNetwork network_;
};

TEST_F(NetworkTest, ProbeReachablePeerYieldsWireBytes) {
  const auto result =
      network_.probe(swarm_.infohash(), Endpoint{IpAddress(10, 0, 0, 1), 6881}, 10);
  ASSERT_TRUE(result.has_value());
  const auto hs = Handshake::decode(result->handshake);
  ASSERT_TRUE(hs.has_value());
  EXPECT_EQ(hs->infohash, swarm_.infohash());
  const auto body = decode_bitfield_message(result->bitfield);
  ASSERT_TRUE(body.has_value());
  EXPECT_TRUE(Bitfield::from_bytes(*body, 40).complete());
}

TEST_F(NetworkTest, ProbePartialDownloaderNotComplete) {
  const auto result =
      network_.probe(swarm_.infohash(), Endpoint{IpAddress(10, 0, 0, 3), 6881}, 250);
  ASSERT_TRUE(result.has_value());
  const auto body = decode_bitfield_message(result->bitfield);
  ASSERT_TRUE(body.has_value());
  EXPECT_FALSE(Bitfield::from_bytes(*body, 40).complete());
}

TEST_F(NetworkTest, ProbeNattedPeerFails) {
  EXPECT_FALSE(network_
                   .probe(swarm_.infohash(),
                          Endpoint{IpAddress(10, 0, 0, 2), 6881}, 10)
                   .has_value());
}

TEST_F(NetworkTest, ProbeAbsentPeerOrSwarmFails) {
  EXPECT_FALSE(network_
                   .probe(swarm_.infohash(),
                          Endpoint{IpAddress(10, 0, 0, 1), 6881}, 2000)
                   .has_value());  // departed
  EXPECT_FALSE(network_
                   .probe(Sha1::hash("other"),
                          Endpoint{IpAddress(10, 0, 0, 1), 6881}, 10)
                   .has_value());  // unknown swarm
}

TEST_F(NetworkTest, RegisterRequiresFinalized) {
  Swarm raw(Sha1::hash("raw2"), 8, 0);
  EXPECT_THROW(network_.register_swarm(raw), std::logic_error);
}

TEST_F(NetworkTest, FindByInfohash) {
  EXPECT_EQ(network_.find(swarm_.infohash()), &swarm_);
  EXPECT_EQ(network_.find(Sha1::hash("nope")), nullptr);
  EXPECT_EQ(network_.swarm_count(), 1u);
}

}  // namespace
}  // namespace btpub
