// The simulated DHT overlay: joins, iterative lookups, announce/get_peers
// round trips, O(log n) convergence, departure handling, determinism.
#include <gtest/gtest.h>

#include <cmath>

#include "dht/overlay.hpp"
#include "dht_support.hpp"

namespace btpub::dht {
namespace {

Endpoint peer_at(std::uint32_t i, std::uint16_t port = 6881) {
  return Endpoint{IpAddress(0x0A000000u + i), port};
}

TEST(DhtOverlayTest, JoinFillsRoutingTables) {
  DhtOverlay overlay(1);
  SimTime now = 0;
  for (std::uint32_t i = 0; i < 30; ++i) overlay.add_node(peer_at(i), ++now);
  EXPECT_EQ(overlay.node_count(), 31u);  // 30 + the router
  // Every node learnt someone, and the router knows most of the overlay.
  for (std::uint32_t i = 0; i < 30; ++i) {
    EXPECT_GT(contacts(overlay.node_at(peer_at(i))->table()).size(), 0u) << i;
  }
  EXPECT_GE(contacts(overlay.node_at(overlay.router())->table()).size(), 8u);
}

TEST(DhtOverlayTest, AnnounceThenLookupFindsThePeer) {
  DhtOverlay overlay(2);
  SimTime now = 0;
  for (std::uint32_t i = 0; i < 40; ++i) overlay.add_node(peer_at(i), ++now);
  const Sha1Digest infohash = Sha1::hash("announce me");
  overlay.announce_peer(infohash, peer_at(7), ++now);

  LookupStats stats;
  const auto found = overlay.get_peers(infohash, {IpAddress(10, 88, 0, 1), 6881},
                                       ++now, &stats, {}, /*read_only=*/true);
  ASSERT_EQ(found.size(), 1u);
  EXPECT_EQ(found[0], peer_at(7));
  EXPECT_GT(stats.messages, 0u);
  EXPECT_EQ(stats.peers_found, 1u);
}

TEST(DhtOverlayTest, LookupForUnknownInfohashFindsNothing) {
  DhtOverlay overlay(3);
  SimTime now = 0;
  for (std::uint32_t i = 0; i < 20; ++i) overlay.add_node(peer_at(i), ++now);
  const auto found = overlay.get_peers(Sha1::hash("never announced"),
                                       {IpAddress(10, 88, 0, 1), 6881}, ++now,
                                       nullptr, {}, true);
  EXPECT_TRUE(found.empty());
}

TEST(DhtOverlayTest, DepartedNodesTimeOutAndLookupsRouteAround) {
  DhtOverlay overlay(4);
  SimTime now = 0;
  for (std::uint32_t i = 0; i < 40; ++i) overlay.add_node(peer_at(i), ++now);
  const Sha1Digest infohash = Sha1::hash("churny");
  overlay.announce_peer(infohash, peer_at(5), ++now);
  // Half the population departs; their table entries elsewhere go stale.
  for (std::uint32_t i = 20; i < 40; ++i) overlay.remove_node(peer_at(i));

  LookupStats stats;
  const auto found = overlay.get_peers(infohash, {IpAddress(10, 88, 0, 1), 6881},
                                       ++now, &stats, {}, true);
  // The lookup sees timeouts but still converges on the stored peer,
  // because announce replicated the mapping across the k closest nodes.
  EXPECT_FALSE(found.empty());
  EXPECT_EQ(found[0], peer_at(5));
}

TEST(DhtOverlayTest, ReadOnlyVantageNeverEntersRoutingTables) {
  DhtOverlay overlay(5);
  SimTime now = 0;
  for (std::uint32_t i = 0; i < 20; ++i) overlay.add_node(peer_at(i), ++now);
  const Endpoint vantage{IpAddress(10, 88, 0, 1), 6881};
  const NodeId vantage_id = NodeId::for_endpoint(5, vantage);
  for (int walk = 0; walk < 5; ++walk) {
    overlay.get_peers(Sha1::hash("probe" + std::to_string(walk)), vantage,
                      ++now, nullptr, {}, /*read_only=*/true);
  }
  for (std::uint32_t i = 0; i < 20; ++i) {
    EXPECT_FALSE(has_contact(overlay.node_at(peer_at(i))->table(), vantage_id));
  }
  EXPECT_FALSE(
      has_contact(overlay.node_at(overlay.router())->table(), vantage_id));
}

TEST(DhtOverlayTest, BootstrapHintsReplaceTheRouter) {
  DhtOverlay overlay(6);
  SimTime now = 0;
  for (std::uint32_t i = 0; i < 30; ++i) overlay.add_node(peer_at(i), ++now);
  const Sha1Digest infohash = Sha1::hash("hinted lookup");
  overlay.announce_peer(infohash, peer_at(3), ++now);
  // Bootstrapping from an ordinary node (as from a magnet x.pe hint)
  // converges without ever touching the router.
  const Endpoint hints[] = {peer_at(11)};
  LookupStats stats;
  const auto found = overlay.get_peers(infohash, {IpAddress(10, 88, 0, 1), 6881},
                                       ++now, &stats, hints, true);
  ASSERT_FALSE(found.empty());
  EXPECT_EQ(found[0], peer_at(3));
}

TEST(DhtOverlayTest, ThousandNodeLookupConvergesInLogNHops) {
  DhtOverlay overlay(7);
  constexpr std::size_t kNodes = 1000;
  SimTime now = 0;
  for (std::uint32_t i = 0; i < kNodes; ++i) overlay.add_node(peer_at(i), ++now);

  // ceil(log2(1000)) = 10: Kademlia halves the distance per hop, so no
  // lookup may take more rounds than the id-space depth of the overlay.
  const std::uint32_t bound = static_cast<std::uint32_t>(
      std::ceil(std::log2(static_cast<double>(kNodes))));
  const Endpoint vantage{IpAddress(10, 88, 0, 1), 6881};
  std::uint32_t worst = 0;
  for (int t = 0; t < 50; ++t) {
    const Sha1Digest infohash = Sha1::hash("target" + std::to_string(t));
    overlay.announce_peer(infohash, peer_at(std::uint32_t(t)), ++now);
    LookupStats stats;
    const auto found =
        overlay.get_peers(infohash, vantage, ++now, &stats, {}, true);
    ASSERT_FALSE(found.empty()) << t;
    EXPECT_LE(stats.hops, bound) << "lookup " << t;
    worst = std::max(worst, stats.hops);
  }
  // Sanity: the walk is genuinely iterative, not a single-hop shortcut.
  EXPECT_GT(worst, 1u);
}

TEST(DhtOverlayTest, IdenticallySeededOverlaysAnswerIdentically) {
  const auto build = [](DhtOverlay& overlay) {
    SimTime now = 0;
    for (std::uint32_t i = 0; i < 60; ++i) overlay.add_node(peer_at(i), ++now);
    for (int t = 0; t < 8; ++t) {
      overlay.announce_peer(Sha1::hash("det" + std::to_string(t)),
                            peer_at(std::uint32_t(3 * t)), ++now);
    }
    return now;
  };
  DhtOverlay a(42), b(42);
  const SimTime now_a = build(a);
  const SimTime now_b = build(b);
  ASSERT_EQ(now_a, now_b);
  const Endpoint vantage{IpAddress(10, 88, 0, 1), 6881};
  for (int t = 0; t < 8; ++t) {
    const Sha1Digest infohash = Sha1::hash("det" + std::to_string(t));
    LookupStats sa, sb;
    const auto ra = a.get_peers(infohash, vantage, now_a + 1, &sa, {}, true);
    const auto rb = b.get_peers(infohash, vantage, now_b + 1, &sb, {}, true);
    EXPECT_EQ(ra, rb) << t;
    EXPECT_EQ(sa.hops, sb.hops) << t;
    EXPECT_EQ(sa.messages, sb.messages) << t;
  }
  EXPECT_EQ(a.datagrams(), b.datagrams());
}

TEST(DhtOverlayTest, RouterNeverDeparts) {
  DhtOverlay overlay(8);
  overlay.remove_node(overlay.router());
  EXPECT_NE(overlay.node_at(overlay.router()), nullptr);
}

}  // namespace
}  // namespace btpub::dht
