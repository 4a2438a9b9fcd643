// BEP 15 UDP tracker protocol: packet formats and the endpoint state
// machine (connect handshake, connection-id expiry, announce, errors).
#include <gtest/gtest.h>

#include "torrent/wire.hpp"
#include "tracker/udp.hpp"
#include "tracker/udp_server.hpp"
#include "udp_support.hpp"

namespace btpub {
namespace {

TEST(UdpPackets, ConnectRequestRoundTrip) {
  UdpConnectRequest req;
  req.transaction_id = 0xDEADBEEF;
  const std::string wire = encode(req);
  ASSERT_EQ(wire.size(), 16u);
  // Magic constant in the first 8 bytes, big-endian.
  EXPECT_EQ(static_cast<unsigned char>(wire[0]), 0x00);
  EXPECT_EQ(static_cast<unsigned char>(wire[2]), 0x04);
  EXPECT_EQ(static_cast<unsigned char>(wire[3]), 0x17);
  const auto decoded = UdpConnectRequest::decode(wire);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->transaction_id, 0xDEADBEEF);
}

TEST(UdpPackets, ConnectRequestRejectsBadMagicOrSize) {
  UdpConnectRequest req;
  std::string wire = encode(req);
  wire[0] = 0x7f;
  EXPECT_FALSE(UdpConnectRequest::decode(wire).has_value());
  EXPECT_FALSE(UdpConnectRequest::decode("short").has_value());
}

TEST(UdpPackets, ConnectResponseRoundTrip) {
  UdpConnectResponse res;
  res.transaction_id = 42;
  res.connection_id = 0x0123456789ABCDEFull;
  const auto decoded = UdpConnectResponse::decode(encode(res));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->transaction_id, 42u);
  EXPECT_EQ(decoded->connection_id, 0x0123456789ABCDEFull);
}

TEST(UdpPackets, AnnounceRequestRoundTrip) {
  UdpAnnounceRequest req;
  req.connection_id = 99;
  req.transaction_id = 7;
  req.infohash = Sha1::hash("udp torrent");
  req.peer_id = Handshake::make_peer_id(5);
  req.downloaded = 1000;
  req.left = 2000;
  req.uploaded = 3000;
  req.event = 2;
  req.ip = IpAddress(1, 2, 3, 4).value();
  req.key = 0xCAFE;
  req.num_want = 50;
  req.port = 6881;
  const std::string wire = encode(req);
  ASSERT_EQ(wire.size(), 98u);
  const auto decoded = UdpAnnounceRequest::decode(wire);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->connection_id, 99u);
  EXPECT_EQ(decoded->infohash, req.infohash);
  EXPECT_EQ(decoded->peer_id, req.peer_id);
  EXPECT_EQ(decoded->left, 2000u);
  EXPECT_EQ(decoded->event, 2u);
  EXPECT_EQ(decoded->num_want, 50u);
  EXPECT_EQ(decoded->port, 6881);
}

TEST(UdpPackets, EndpointAnnounceResponseLayout) {
  AnnounceReply reply;
  reply.ok = true;
  reply.interval = 900;
  reply.incomplete = 12;
  reply.complete = 3;
  reply.peers = {{IpAddress(10, 0, 0, 1), 6881}, {IpAddress(10, 0, 0, 2), 51413}};
  std::string wire;
  UdpTrackerEndpoint::encode_announce_response_into(11, reply, wire);
  ASSERT_EQ(wire.size(), 20u + 2 * 6);
  EXPECT_EQ(udp_response_action(wire), UdpAction::Announce);
  const auto decoded = UdpAnnounceResponse::decode(wire);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->transaction_id, 11u);
  EXPECT_EQ(decoded->interval, 900u);
  EXPECT_EQ(decoded->leechers, 12u);
  EXPECT_EQ(decoded->seeders, 3u);
  EXPECT_EQ(decoded->peers, reply.peers);
}

TEST(UdpPackets, ScrapeRequestRoundTrip) {
  UdpScrapeRequest req;
  req.connection_id = 77;
  req.transaction_id = 13;
  req.infohashes = {Sha1::hash("a"), Sha1::hash("b"), Sha1::hash("c")};
  const std::string wire = encode(req);
  ASSERT_EQ(wire.size(), 16u + 3 * 20);
  const auto decoded = UdpScrapeRequest::decode(wire);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->connection_id, 77u);
  EXPECT_EQ(decoded->transaction_id, 13u);
  EXPECT_EQ(decoded->infohashes, req.infohashes);
}

TEST(UdpPackets, ScrapeRequestRejectsEmptyRaggedAndOversized) {
  UdpScrapeRequest req;
  req.infohashes = {Sha1::hash("x")};
  std::string wire = encode(req);
  EXPECT_FALSE(UdpScrapeRequest::decode(wire.substr(0, 16)).has_value());
  wire.pop_back();  // ragged infohash list
  EXPECT_FALSE(UdpScrapeRequest::decode(wire).has_value());
  req.infohashes.assign(UdpScrapeRequest::kMaxInfohashes + 1, Sha1::hash("y"));
  EXPECT_FALSE(UdpScrapeRequest::decode(encode(req)).has_value());
}

TEST(UdpPackets, ScrapeResponseRoundTrip) {
  UdpScrapeResponse res;
  res.transaction_id = 21;
  res.entries = {{5, 120, 31}, {0, 0, 0}};
  const std::string wire = encode(res);
  ASSERT_EQ(wire.size(), 8u + 2 * 12);
  EXPECT_EQ(udp_response_action(wire), UdpAction::Scrape);
  const auto decoded = decode_scrape_response(wire);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->transaction_id, 21u);
  EXPECT_EQ(decoded->entries, res.entries);
}

TEST(UdpPackets, ErrorRoundTripAndActionPeek) {
  UdpErrorResponse err;
  err.transaction_id = 3;
  err.message = "slow down";
  const std::string wire = encode(err);
  EXPECT_EQ(udp_response_action(wire), UdpAction::Error);
  const auto decoded = UdpErrorResponse::decode(wire);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->message, "slow down");
  EXPECT_FALSE(udp_response_action("ab").has_value());
}

// ---- endpoint state machine ----

class UdpEndpointTest : public ::testing::Test {
 protected:
  UdpEndpointTest()
      : tracker_(TrackerConfig{}, Rng(4)), endpoint_(tracker_, Rng(5)) {
    swarm_ = Swarm(Sha1::hash("udp swarm"), 32, 0);
    for (std::uint32_t i = 1; i <= 40; ++i) {
      PeerSession s;
      s.endpoint = Endpoint{IpAddress(0x0A000000 + i), 6881};
      s.arrive = 0;
      s.depart = days(10);
      if (i == 1) s.complete_at = 0;
      swarm_.add_session(s);
    }
    swarm_.finalize();
    tracker_.host_swarm(swarm_);
  }

  std::uint64_t connect(const Endpoint& from, SimTime now) {
    UdpConnectRequest req;
    req.transaction_id = 1;
    const std::string response = handle(endpoint_, encode(req), from, now);
    const auto decoded = UdpConnectResponse::decode(response);
    EXPECT_TRUE(decoded.has_value());
    return decoded ? decoded->connection_id : 0;
  }

  std::string announce(std::uint64_t connection_id, const Endpoint& from,
                       SimTime now, std::uint32_t num_want = 25) {
    UdpAnnounceRequest req;
    req.connection_id = connection_id;
    req.transaction_id = 2;
    req.infohash = swarm_.infohash();
    req.port = from.port;
    req.num_want = num_want;
    return handle(endpoint_, encode(req), from, now);
  }

  Tracker tracker_;
  UdpTrackerEndpoint endpoint_;
  Swarm swarm_;
};

TEST_F(UdpEndpointTest, ConnectThenAnnounce) {
  const Endpoint client{IpAddress(9, 9, 9, 9), 7000};
  const std::uint64_t id = connect(client, 100);
  const std::string response = announce(id, client, 150);
  const auto decoded = UdpAnnounceResponse::decode(response);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->seeders, 1u);
  EXPECT_EQ(decoded->leechers, 39u);
  EXPECT_EQ(decoded->peers.size(), 25u);
  EXPECT_EQ(decoded->transaction_id, 2u);
}

TEST_F(UdpEndpointTest, AnnounceWithoutConnectFails) {
  const Endpoint client{IpAddress(9, 9, 9, 9), 7000};
  const std::string response = announce(0xBADBAD, client, 100);
  const auto err = UdpErrorResponse::decode(response);
  ASSERT_TRUE(err.has_value());
  EXPECT_EQ(err->message, "invalid connection id");
}

TEST_F(UdpEndpointTest, ConnectionIdExpires) {
  const Endpoint client{IpAddress(9, 9, 9, 9), 7000};
  const std::uint64_t id = connect(client, 100);
  const SimTime later = 100 + UdpTrackerEndpoint::kConnectionTtl + 1;
  const auto err = UdpErrorResponse::decode(announce(id, client, later));
  ASSERT_TRUE(err.has_value());
  EXPECT_EQ(err->message, "invalid connection id");
}

TEST_F(UdpEndpointTest, ConnectionIdValidAtExactTtlBoundary) {
  const Endpoint client{IpAddress(9, 9, 9, 9), 7000};
  const std::uint64_t id = connect(client, 100);
  // BEP 15: a connection id is good for two minutes — inclusive. One past
  // the boundary is the first rejected instant.
  const SimTime boundary = 100 + UdpTrackerEndpoint::kConnectionTtl;
  const auto ok = UdpAnnounceResponse::decode(announce(id, client, boundary));
  ASSERT_TRUE(ok.has_value());
  const auto err =
      UdpErrorResponse::decode(announce(id, client, boundary + 1));
  ASSERT_TRUE(err.has_value());
  EXPECT_EQ(err->message, "invalid connection id");
}

TEST_F(UdpEndpointTest, StaleConnectionsArePrunedOnConnect) {
  for (std::uint32_t i = 0; i < 50; ++i) {
    connect(Endpoint{IpAddress(0x09000000 + i), 7000}, 100);
  }
  EXPECT_EQ(endpoint_.active_connections(), 50u);
  // A single handshake past every TTL sweeps the whole table.
  const SimTime later = 100 + UdpTrackerEndpoint::kConnectionTtl + 1;
  connect(Endpoint{IpAddress(9, 0, 0, 99), 7000}, later);
  EXPECT_EQ(endpoint_.active_connections(), 1u);
}

TEST_F(UdpEndpointTest, ConnectionIdBoundToSenderAddress) {
  const Endpoint alice{IpAddress(9, 9, 9, 9), 7000};
  const Endpoint mallory{IpAddress(6, 6, 6, 6), 7000};
  const std::uint64_t id = connect(alice, 100);
  const auto err = UdpErrorResponse::decode(announce(id, mallory, 120));
  ASSERT_TRUE(err.has_value());  // spoofed announce rejected
}

TEST_F(UdpEndpointTest, DefaultNumWantUsesTrackerCap) {
  const Endpoint client{IpAddress(9, 9, 9, 8), 7000};
  const std::uint64_t id = connect(client, 100);
  const auto decoded =
      UdpAnnounceResponse::decode(announce(id, client, 150, ~0u));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->peers.size(), 40u);  // whole (small) swarm
}

TEST_F(UdpEndpointTest, TrackerFailuresSurfaceAsErrors) {
  const Endpoint client{IpAddress(9, 9, 9, 7), 7000};
  const std::uint64_t id = connect(client, 100);
  UdpAnnounceRequest req;
  req.connection_id = id;
  req.transaction_id = 5;
  req.infohash = Sha1::hash("not hosted");
  req.port = client.port;
  const auto err =
      UdpErrorResponse::decode(handle(endpoint_, encode(req), client, 150));
  ASSERT_TRUE(err.has_value());
  EXPECT_EQ(err->message, "unregistered torrent");
  EXPECT_EQ(err->transaction_id, 5u);
}

TEST_F(UdpEndpointTest, ScrapeReturnsSwarmCountersInRequestOrder) {
  const Endpoint client{IpAddress(9, 9, 9, 5), 7000};
  const std::uint64_t id = connect(client, 100);
  UdpScrapeRequest req;
  req.connection_id = id;
  req.transaction_id = 9;
  req.infohashes = {Sha1::hash("not hosted"), swarm_.infohash()};
  const auto res =
      decode_scrape_response(handle(endpoint_, encode(req), client, 150));
  ASSERT_TRUE(res.has_value());
  EXPECT_EQ(res->transaction_id, 9u);
  ASSERT_EQ(res->entries.size(), 2u);
  // Unknown infohash scrapes as zeros, in position.
  EXPECT_EQ(res->entries[0], UdpScrapeEntry{});
  EXPECT_EQ(res->entries[1].seeders, 1u);
  EXPECT_EQ(res->entries[1].leechers, 39u);
  EXPECT_EQ(res->entries[1].completed, 40u);  // total sessions ever
}

TEST_F(UdpEndpointTest, ScrapeAgreesWithBencodedScrape) {
  const Endpoint client{IpAddress(9, 9, 9, 4), 7000};
  const std::uint64_t id = connect(client, 100);
  UdpScrapeRequest req;
  req.connection_id = id;
  req.transaction_id = 1;
  req.infohashes = {swarm_.infohash()};
  const auto res =
      decode_scrape_response(handle(endpoint_, encode(req), client, 150));
  ASSERT_TRUE(res.has_value());
  const auto counts = tracker_.scrape_counts(swarm_.infohash(), 150);
  ASSERT_TRUE(counts.has_value());
  EXPECT_EQ(res->entries[0].seeders, counts->complete);
  EXPECT_EQ(res->entries[0].leechers, counts->incomplete);
  EXPECT_EQ(res->entries[0].completed, counts->downloaded);
}

TEST_F(UdpEndpointTest, ScrapeWithoutConnectFails) {
  const Endpoint client{IpAddress(9, 9, 9, 3), 7000};
  UdpScrapeRequest req;
  req.connection_id = 0xBADBAD;
  req.transaction_id = 4;
  req.infohashes = {swarm_.infohash()};
  const auto err =
      UdpErrorResponse::decode(handle(endpoint_, encode(req), client, 100));
  ASSERT_TRUE(err.has_value());
  EXPECT_EQ(err->message, "invalid connection id");
  EXPECT_EQ(err->transaction_id, 4u);
}

TEST_F(UdpEndpointTest, MalformedDatagramGetsError) {
  const Endpoint client{IpAddress(9, 9, 9, 6), 7000};
  const auto err =
      UdpErrorResponse::decode(handle(endpoint_, "junk", client, 100));
  ASSERT_TRUE(err.has_value());
  EXPECT_EQ(err->message, "malformed datagram");
}

}  // namespace
}  // namespace btpub
