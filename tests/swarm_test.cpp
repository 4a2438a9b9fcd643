// Swarm presence sweeping, sampling and progress model.
#include "swarm/swarm.hpp"

#include <gtest/gtest.h>

#include <set>

namespace btpub {
namespace {

PeerSession leecher(std::uint32_t ip, SimTime arrive, SimTime depart,
                    SimTime complete_at = std::numeric_limits<SimTime>::max(),
                    bool nat = false) {
  PeerSession s;
  s.endpoint = Endpoint{IpAddress(ip), 6881};
  s.arrive = arrive;
  s.depart = depart;
  s.complete_at = complete_at;
  s.nat = nat;
  return s;
}

PeerSession seeder_from_start(std::uint32_t ip, SimTime arrive, SimTime depart) {
  PeerSession s = leecher(ip, arrive, depart, arrive);
  s.is_publisher = true;
  return s;
}

Swarm make_basic_swarm() {
  Swarm swarm(Sha1::hash("swarm"), 100, 0);
  swarm.add_session(seeder_from_start(1, 0, 1000));       // publisher
  swarm.add_session(leecher(2, 100, 500, 400));           // completes at 400
  swarm.add_session(leecher(3, 200, 300));                // aborts
  swarm.add_session(leecher(4, 600, 900, 800));           // later peer
  swarm.finalize();
  return swarm;
}

TEST(SwarmTest, CountsThroughLifecycle) {
  Swarm swarm = make_basic_swarm();
  EXPECT_EQ(swarm.counts_at(0).seeders, 1u);
  EXPECT_EQ(swarm.counts_at(0).leechers, 0u);
  EXPECT_EQ(swarm.counts_at(150).leechers, 1u);   // peer 2 arrived
  EXPECT_EQ(swarm.counts_at(250).leechers, 2u);   // peer 3 too
  EXPECT_EQ(swarm.counts_at(350).leechers, 1u);   // peer 3 gone
  // Peer 2 completed at 400: now a second seeder until it departs at 500.
  EXPECT_EQ(swarm.counts_at(450).seeders, 2u);
  EXPECT_EQ(swarm.counts_at(450).leechers, 0u);
  EXPECT_EQ(swarm.counts_at(550).seeders, 1u);
  EXPECT_EQ(swarm.counts_at(1500).total(), 0u);   // everyone gone
}

TEST(SwarmTest, BackwardsQueryRewinds) {
  Swarm swarm = make_basic_swarm();
  EXPECT_EQ(swarm.counts_at(450).seeders, 2u);
  // Going back in time is allowed (slow path rebuild).
  EXPECT_EQ(swarm.counts_at(0).seeders, 1u);
  EXPECT_EQ(swarm.counts_at(0).leechers, 0u);
}

TEST(SwarmTest, SamplePeersReturnsPresentOnly) {
  Swarm swarm = make_basic_swarm();
  Rng rng(1);
  const auto peers = swarm.sample_peers(250, 10, rng);
  ASSERT_EQ(peers.size(), 3u);  // publisher + peers 2,3
  for (const PeerSession* p : peers) {
    EXPECT_TRUE(p->present_at(250));
  }
}

TEST(SwarmTest, SampleDistinctAndBounded) {
  Swarm swarm(Sha1::hash("big"), 10, 0);
  for (std::uint32_t i = 0; i < 500; ++i) {
    swarm.add_session(leecher(i + 1, 0, 1000));
  }
  swarm.finalize();
  Rng rng(2);
  const auto sample = swarm.sample_peers(10, 200, rng);
  ASSERT_EQ(sample.size(), 200u);
  std::set<std::uint32_t> ips;
  for (const PeerSession* p : sample) ips.insert(p->endpoint.ip.value());
  EXPECT_EQ(ips.size(), 200u);
}

TEST(SwarmTest, SampleUniformCoverage) {
  Swarm swarm(Sha1::hash("uni"), 10, 0);
  for (std::uint32_t i = 0; i < 50; ++i) swarm.add_session(leecher(i + 1, 0, 100));
  swarm.finalize();
  Rng rng(3);
  std::vector<int> hits(51, 0);
  for (int round = 0; round < 2000; ++round) {
    for (const PeerSession* p : swarm.sample_peers(50, 10, rng)) {
      ++hits[p->endpoint.ip.value()];
    }
  }
  // Each of 50 peers expected 2000*10/50 = 400 times.
  for (std::uint32_t i = 1; i <= 50; ++i) EXPECT_NEAR(hits[i], 400, 90);
}

TEST(SwarmTest, FindPeerByEndpointAndTime) {
  Swarm swarm = make_basic_swarm();
  const Endpoint target{IpAddress(2u), 6881};
  EXPECT_NE(swarm.find_peer(target, 250), nullptr);
  EXPECT_EQ(swarm.find_peer(target, 50), nullptr);    // not yet arrived
  EXPECT_EQ(swarm.find_peer(target, 501), nullptr);   // departed
  EXPECT_EQ(swarm.find_peer(Endpoint{IpAddress(99u), 1}, 250), nullptr);
}

TEST(SwarmTest, ProgressModel) {
  Swarm swarm = make_basic_swarm();
  const PeerSession& downloader = swarm.sessions()[1];  // completes 100->400
  EXPECT_DOUBLE_EQ(swarm.progress_at(downloader, 100), 0.0);
  EXPECT_NEAR(swarm.progress_at(downloader, 250), 0.5, 1e-9);
  EXPECT_DOUBLE_EQ(swarm.progress_at(downloader, 400), 1.0);
  EXPECT_DOUBLE_EQ(swarm.progress_at(downloader, 450), 1.0);
  const PeerSession& aborter = swarm.sessions()[2];  // never completes
  EXPECT_LT(swarm.progress_at(aborter, 299), 1.0);
}

TEST(SwarmTest, BitfieldMatchesProgress) {
  Swarm swarm = make_basic_swarm();
  const PeerSession& publisher = swarm.sessions()[0];
  EXPECT_TRUE(swarm.bitfield_at(publisher, 10).complete());
  const PeerSession& downloader = swarm.sessions()[1];
  const Bitfield half = swarm.bitfield_at(downloader, 250);
  EXPECT_EQ(half.count(), 50u);
  EXPECT_FALSE(half.complete());
  EXPECT_TRUE(swarm.bitfield_at(downloader, 400).complete());
}

TEST(SwarmTest, LastDepartureAndDistinctIps) {
  Swarm swarm = make_basic_swarm();
  EXPECT_EQ(swarm.last_departure(), 1000);
  // Publisher session excluded from downloader IP count.
  EXPECT_EQ(swarm.distinct_downloader_ips(), 3u);
}

TEST(SwarmTest, DistinctIpsCountEachDownloaderAddressOnce) {
  Swarm swarm(Sha1::hash("ips"), 10, 0);
  PeerSession other_port = leecher(5, 0, 10);
  other_port.endpoint.port = 7000;
  PeerSession spoofed = leecher(6, 0, 10);
  spoofed.spoofed = true;
  swarm.add_session(leecher(9, 0, 10));
  swarm.add_session(other_port);             // IP 5 twice, on two ports
  swarm.add_session(leecher(5, 20, 30));
  swarm.add_session(spoofed);                // decoy only: not a downloader
  swarm.add_session(seeder_from_start(7, 0, 10));
  swarm.add_session(leecher(7, 20, 30));     // the publisher's IP, as a leecher
  EXPECT_THROW(swarm.distinct_downloader_ips(), std::logic_error);
  swarm.finalize();
  EXPECT_EQ(swarm.distinct_downloader_ips(), 3u);  // 5, 7 and 9
}

TEST(SwarmTest, DegenerateSessionsDropped) {
  Swarm swarm(Sha1::hash("d"), 10, 0);
  swarm.add_session(leecher(1, 100, 100));  // zero length
  swarm.add_session(leecher(2, 100, 50));   // negative length
  swarm.finalize();
  EXPECT_EQ(swarm.session_count(), 0u);
}

TEST(SwarmTest, AddAfterFinalizeThrows) {
  Swarm swarm(Sha1::hash("f"), 10, 0);
  swarm.finalize();
  EXPECT_THROW(swarm.add_session(leecher(1, 0, 10)), std::logic_error);
}

TEST(SwarmTest, ReentrantPeerHasTwoSessions) {
  Swarm swarm(Sha1::hash("r"), 10, 0);
  swarm.add_session(leecher(7, 0, 100));
  swarm.add_session(leecher(7, 200, 300));
  swarm.finalize();
  const Endpoint e{IpAddress(7u), 6881};
  EXPECT_NE(swarm.find_peer(e, 50), nullptr);
  EXPECT_EQ(swarm.find_peer(e, 150), nullptr);
  EXPECT_NE(swarm.find_peer(e, 250), nullptr);
  EXPECT_EQ(swarm.distinct_downloader_ips(), 1u);
}

}  // namespace
}  // namespace btpub
