// Mainline DHT building blocks (BEP 5): node ids and the XOR metric, KRPC
// codecs, k-bucket routing tables, rotating announce tokens, the per-node
// peer store + query handler, and the sorted frontier of a lookup walk.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "dht/frontier.hpp"
#include "dht/node.hpp"
#include "dht/node_id.hpp"
#include "dht/krpc.hpp"
#include "dht/routing_table.hpp"
#include "dht_support.hpp"
#include "util/rng.hpp"

namespace btpub::dht {
namespace {

NodeId xor_ids(const NodeId& a, const NodeId& b) {
  NodeId d;
  for (std::size_t i = 0; i < d.bytes.size(); ++i) {
    d.bytes[i] = static_cast<std::uint8_t>(a.bytes[i] ^ b.bytes[i]);
  }
  return d;
}

NodeId id_with(std::uint8_t first, std::uint8_t last = 0) {
  NodeId id;
  id.bytes[0] = first;
  id.bytes[19] = last;
  return id;
}

// ---- node ids and the XOR metric ----

TEST(NodeIdTest, DistanceKeyIsXorInBigEndianWords) {
  const NodeId a = id_with(0xF0, 0x0F);
  const NodeId b = id_with(0x0F, 0x0F);
  const DistanceKey d = distance_key(a, b);
  EXPECT_EQ(d.hi, 0xFF00000000000000ull);
  EXPECT_EQ(d.mid, 0u);
  EXPECT_EQ(d.lo, 0u);
  const DistanceKey self = distance_key(a, a);
  EXPECT_EQ(self.hi | self.mid | self.lo, 0u);
}

TEST(NodeIdTest, CloserComparesBigEndianMagnitude) {
  const NodeId target = id_with(0x00);
  EXPECT_TRUE(closer(id_with(0x01), id_with(0x02), target));
  EXPECT_FALSE(closer(id_with(0x02), id_with(0x01), target));
  // Equal distance: not closer.
  EXPECT_FALSE(closer(id_with(0x01), id_with(0x01), target));
  // The high byte dominates regardless of the tail.
  EXPECT_TRUE(closer(id_with(0x01, 0xFF), id_with(0x02, 0x00), target));
}

TEST(NodeIdTest, DistanceBitIsBucketIndex) {
  EXPECT_EQ(distance_bit(NodeId{}), -1);
  EXPECT_EQ(distance_bit(id_with(0x80)), 159);
  EXPECT_EQ(distance_bit(id_with(0x00, 0x01)), 0);
  EXPECT_EQ(distance_bit(id_with(0x00, 0x80)), 7);
}

TEST(NodeIdTest, ForEndpointIsDeterministicAndEndpointSensitive) {
  const Endpoint e1{IpAddress(1, 2, 3, 4), 6881};
  const Endpoint e2{IpAddress(1, 2, 3, 4), 6882};
  EXPECT_EQ(NodeId::for_endpoint(7, e1), NodeId::for_endpoint(7, e1));
  EXPECT_NE(NodeId::for_endpoint(7, e1), NodeId::for_endpoint(7, e2));
  EXPECT_NE(NodeId::for_endpoint(7, e1), NodeId::for_endpoint(8, e1));
}

// ---- KRPC codecs ----

TEST(KrpcTest, CompactNodesInAResponse) {
  std::string blob;
  const NodeInfo a{id_with(0xAA, 0x01), {IpAddress(10, 0, 0, 1), 6881}};
  const NodeInfo b{id_with(0xBB, 0x02), {IpAddress(10, 0, 0, 2), 51413}};
  append_compact_node(blob, a);
  append_compact_node(blob, b);
  ASSERT_EQ(blob.size(), 52u);
  // 20 id bytes, then the big-endian address and port.
  EXPECT_EQ(blob.substr(0, 20), std::string(a.id.bytes.begin(), a.id.bytes.end()));
  EXPECT_EQ(blob.substr(20, 6), std::string("\x0A\x00\x00\x01\x1A\xE1", 6));
  const auto response_with = [](std::string_view nodes) {
    return "d1:rd2:id20:aaaaaaaaaaaaaaaaaaaa5:nodes" + std::to_string(nodes.size()) +
           ":" + std::string(nodes) + "e1:t2:tx1:y1:re";
  };
  const auto decoded = decode<Response>(response_with(blob));
  ASSERT_TRUE(decoded.has_value());
  ASSERT_EQ(decoded->nodes.size(), 2u);
  EXPECT_EQ(decoded->nodes[0], a);
  EXPECT_EQ(decoded->nodes[1], b);
  // A ragged blob is rejected wholesale rather than partially parsed.
  EXPECT_FALSE(decode<Response>(response_with(blob.substr(0, 51))).has_value());
}

TEST(KrpcTest, QueryRoundTripAllMethods) {
  for (const Method method : {Method::Ping, Method::FindNode, Method::GetPeers,
                              Method::AnnouncePeer}) {
    Query query;
    query.transaction_id = "aa";
    query.method = method;
    query.sender_id = id_with(0x42, 0x24);
    query.target = id_with(0x11);
    query.info_hash = Sha1::hash("krpc");
    query.port = 6881;
    query.token = "tok~";
    query.read_only = (method == Method::GetPeers);
    const auto decoded = decode<Query>(encode(query));
    ASSERT_TRUE(decoded.has_value()) << to_string(method);
    EXPECT_EQ(decoded->transaction_id, "aa");
    EXPECT_EQ(decoded->method, method);
    EXPECT_EQ(decoded->sender_id, query.sender_id);
    EXPECT_EQ(decoded->read_only, query.read_only);
    if (method == Method::FindNode) {
      EXPECT_EQ(decoded->target, query.target);
    }
    if (method == Method::GetPeers || method == Method::AnnouncePeer) {
      EXPECT_EQ(decoded->info_hash, query.info_hash);
    }
    if (method == Method::AnnouncePeer) {
      EXPECT_EQ(decoded->port, 6881);
      EXPECT_EQ(decoded->token, "tok~");
    }
  }
}

TEST(KrpcTest, ResponseRoundTripWithNodesPeersAndToken) {
  Response res;
  res.transaction_id = "tx";
  res.sender_id = id_with(0x77);
  res.nodes = {{id_with(0x01), {IpAddress(10, 1, 1, 1), 1000}},
               {id_with(0x02), {IpAddress(10, 1, 1, 2), 2000}}};
  res.peers = {{IpAddress(10, 2, 2, 1), 3000}, {IpAddress(10, 2, 2, 2), 4000}};
  res.token = "write-token";
  const auto decoded = decode<Response>(encode(res));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->transaction_id, "tx");
  EXPECT_EQ(decoded->sender_id, res.sender_id);
  EXPECT_EQ(decoded->nodes, res.nodes);
  EXPECT_EQ(decoded->peers, res.peers);
  EXPECT_EQ(decoded->token, "write-token");
}

TEST(KrpcTest, ErrorEncoding) {
  ErrorMessage error;
  error.transaction_id = "e1";
  error.code = kErrorProtocol;
  error.message = "bad token";
  EXPECT_EQ(encode(error), "d1:eli203e9:bad tokene1:t2:e11:y1:ee");
}

TEST(KrpcTest, DecodeRejectsMalformedMessages) {
  EXPECT_FALSE(decode<Query>("").has_value());
  EXPECT_FALSE(decode<Query>("d1:y1:qe").has_value());       // no method
  EXPECT_FALSE(decode<Query>("i42e").has_value());           // not a dict
  EXPECT_FALSE(decode<Response>("d1:y1:re").has_value());    // no body
  // A query with an unknown method name must not decode as some default.
  Query q;
  q.transaction_id = "xx";
  std::string wire = encode(q);
  const std::size_t at = wire.find("4:ping");
  ASSERT_NE(at, std::string::npos);
  wire.replace(at, 6, "4:pong");
  EXPECT_FALSE(decode<Query>(wire).has_value());
}

// ---- routing table ----

TEST(RoutingTableTest, ObserveInsertsAndSelfIsIgnored) {
  RoutingTable table(id_with(0x00));
  table.observe(id_with(0x00), {IpAddress(10, 0, 0, 1), 1}, 0);  // self
  EXPECT_EQ(contacts(table).size(), 0u);
  table.observe(id_with(0x80), {IpAddress(10, 0, 0, 2), 2}, 0);
  table.observe(id_with(0x81), {IpAddress(10, 0, 0, 3), 3}, 0);
  EXPECT_EQ(contacts(table).size(), 2u);
  EXPECT_TRUE(has_contact(table, id_with(0x80)));
}

TEST(RoutingTableTest, FullBucketEvictsOnlyStaleContacts) {
  RoutingTable table(id_with(0x00));
  // Fill one bucket (all ids share the top distance bit).
  for (std::uint8_t i = 0; i < RoutingTable::kBucketSize; ++i) {
    table.observe(id_with(0x80, i), {IpAddress(0x0A000000u + i), 6881}, 0);
  }
  ASSERT_EQ(contacts(table).size(), RoutingTable::kBucketSize);
  // Fresh bucket: the newcomer is dropped.
  table.observe(id_with(0x80, 0x99), {IpAddress(10, 9, 9, 9), 6881},
                minutes(1));
  EXPECT_FALSE(has_contact(table, id_with(0x80, 0x99)));
  // Once the oldest contact has gone quiet past kStaleAfter, a newcomer
  // takes its slot.
  const SimTime later = minutes(1) + RoutingTable::kStaleAfter + 1;
  table.observe(id_with(0x80, 0x99), {IpAddress(10, 9, 9, 9), 6881}, later);
  EXPECT_TRUE(has_contact(table, id_with(0x80, 0x99)));
  EXPECT_FALSE(has_contact(table, id_with(0x80, 0)));  // LRU victim
  EXPECT_EQ(contacts(table).size(), RoutingTable::kBucketSize);
}

TEST(RoutingTableTest, ClosestReturnsXorOrder) {
  RoutingTable table(id_with(0x00));
  for (std::uint8_t i = 1; i <= 10; ++i) {
    table.observe(id_with(i), {IpAddress(0x0A000000u + i), 6881}, 0);
  }
  std::vector<NodeInfo> out;
  table.closest(id_with(0x01), 3, out);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].id, id_with(0x01));  // distance 0
  // Every later entry is no closer than its predecessor.
  for (std::size_t i = 1; i < out.size(); ++i) {
    EXPECT_FALSE(closer(out[i].id, out[i - 1].id, id_with(0x01)));
  }
}

/// The reference closest(): every contact, fully sorted, truncated to k.
std::vector<NodeId> brute_force_closest(const std::vector<NodeId>& ids,
                                        const NodeId& target, std::size_t k) {
  std::vector<NodeId> all = ids;
  std::sort(all.begin(), all.end(), [&](const NodeId& a, const NodeId& b) {
    return closer(a, b, target);
  });
  if (all.size() > k) all.resize(k);
  return all;
}

/// A random id whose XOR distance from `self` has its top bit at `bit`.
NodeId id_in_bucket(const NodeId& self, int bit, Rng& rng) {
  NodeId d;
  for (auto& byte : d.bytes) byte = static_cast<std::uint8_t>(rng.index(256));
  const int top = 19 - bit / 8;  // big-endian byte holding the bit
  for (int i = 0; i < top; ++i) d.bytes[static_cast<std::size_t>(i)] = 0;
  auto& b = d.bytes[static_cast<std::size_t>(top)];
  const int shift = bit % 8;
  b = static_cast<std::uint8_t>((b & ((1u << shift) - 1)) | (1u << shift));
  return xor_ids(self, d);
}

TEST(RoutingTableTest, ClosestMatchesBruteForceOnRandomTables) {
  Rng rng(0xc105e57);
  for (int trial = 0; trial < 60; ++trial) {
    NodeId self;
    for (auto& byte : self.bytes) byte = static_cast<std::uint8_t>(rng.index(256));
    RoutingTable table(self);
    // A mix of full, partly filled and empty buckets; the low buckets are
    // the crowded ones a real table fills last.
    const std::size_t offered = rng.index(400);
    for (std::size_t i = 0; i < offered; ++i) {
      const int bit = rng.index(3) == 0 ? static_cast<int>(rng.index(160))
                                        : static_cast<int>(150 + rng.index(10));
      table.observe(id_in_bucket(self, bit, rng),
                    {IpAddress(0x0A000000u + std::uint32_t(i)), 6881}, 0);
    }
    std::vector<NodeId> ids;
    std::vector<NodeInfo> everything;
    table.closest(self, 160 * RoutingTable::kBucketSize, everything);
    for (const NodeInfo& c : everything) ids.push_back(c.id);
    ASSERT_EQ(ids.size(), contacts(table).size());

    std::vector<NodeId> targets = {self};  // target == self
    for (int i = 0; i < 8; ++i) {
      targets.push_back(id_in_bucket(self, static_cast<int>(rng.index(160)), rng));
    }
    if (!ids.empty()) targets.push_back(ids[rng.index(ids.size())]);  // a contact
    for (const NodeId& target : targets) {
      for (const std::size_t k : {std::size_t{0}, std::size_t{1}, std::size_t{3},
                                  RoutingTable::kBucketSize, std::size_t{20},
                                  ids.size() + 5}) {
        std::vector<NodeInfo> out;
        table.closest(target, k, out);
        std::vector<NodeId> got;
        for (const NodeInfo& c : out) got.push_back(c.id);
        ASSERT_EQ(got, brute_force_closest(ids, target, k))
            << "trial " << trial << " k " << k << " target " << target.to_digest().hex();
      }
    }
  }
}

TEST(RoutingTableTest, ClosestOnEmptyTableIsEmpty) {
  const RoutingTable table(id_with(0x42));
  std::vector<NodeInfo> out = {NodeInfo{}};
  table.closest(id_with(0x17), RoutingTable::kBucketSize, out);
  EXPECT_TRUE(out.empty());
}

// ---- tokens ----

TEST(TokenJarTest, TokenValidInCurrentAndPreviousEpochOnly) {
  const TokenJar jar(1234);
  const IpAddress ip(83, 1, 2, 3);
  const SimTime t0 = minutes(7);
  const std::string token = jar.token_for(ip, t0);
  EXPECT_EQ(token.size(), 8u);
  EXPECT_TRUE(jar.valid(token, ip, t0));
  // Still good through the next rotation (BEP 5's ten-minute window)...
  EXPECT_TRUE(jar.valid(token, ip, t0 + TokenJar::kTokenRotate));
  // ...but not two epochs out.
  EXPECT_FALSE(jar.valid(token, ip, t0 + 2 * TokenJar::kTokenRotate));
  // Bound to the IP it was issued to.
  EXPECT_FALSE(jar.valid(token, IpAddress(83, 1, 2, 4), t0));
  // Different secrets issue different tokens.
  EXPECT_NE(TokenJar(99).token_for(ip, t0), token);
}

// ---- peer store ----

TEST(PeerStoreTest, AnnounceCollectAge) {
  PeerStore store;
  const Sha1Digest hash = Sha1::hash("stored");
  store.announce(hash, {IpAddress(10, 0, 0, 1), 1}, 0);
  store.announce(hash, {IpAddress(10, 0, 0, 2), 2}, minutes(10));
  EXPECT_EQ(store.stored_peers(), 2u);

  std::vector<Endpoint> out;
  store.collect(hash, minutes(20), out);
  EXPECT_EQ(out.size(), 2u);
  // The first announcer ages out kPeerTtl after its announce...
  store.collect(hash, PeerStore::kPeerTtl + 1, out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], (Endpoint{IpAddress(10, 0, 0, 2), 2}));
  // ...and a refresh resets the clock.
  store.announce(hash, {IpAddress(10, 0, 0, 2), 2},
                 PeerStore::kPeerTtl + minutes(1));
  store.collect(hash, 2 * PeerStore::kPeerTtl, out);
  EXPECT_EQ(out.size(), 1u);
  // Once every announcer has aged out, collect() drops the infohash.
  store.collect(hash, 4 * PeerStore::kPeerTtl, out);
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(store.stored_peers(), 0u);
  EXPECT_EQ(store.stored_infohashes(), 0u);
}

TEST(PeerStoreTest, ReplyWindowCoversMostRecentAnnouncers) {
  PeerStore store;
  const Sha1Digest hash = Sha1::hash("busy");
  // More announcers than fit one reply: the reply must track the newest.
  const std::size_t total = PeerStore::kMaxPeersPerReply + 10;
  for (std::size_t i = 0; i < total; ++i) {
    store.announce(hash, {IpAddress(0x0A000000u + std::uint32_t(i)), 6881},
                   SimTime(i));
  }
  std::vector<Endpoint> out;
  store.collect(hash, SimTime(total), out);
  ASSERT_EQ(out.size(), PeerStore::kMaxPeersPerReply);
  // The newest announcer is visible; the oldest ten are outside the window.
  EXPECT_EQ(out.back().ip.value(), 0x0A000000u + std::uint32_t(total - 1));
  EXPECT_EQ(out.front().ip.value(), 0x0A00000Au);
  // Re-announcing an old peer pulls it back into the window.
  store.announce(hash, {IpAddress(0x0A000000u), 6881}, SimTime(total));
  store.collect(hash, SimTime(total), out);
  EXPECT_EQ(out.back().ip.value(), 0x0A000000u);
}

// ---- node query handler ----

class DhtNodeTest : public ::testing::Test {
 protected:
  DhtNodeTest()
      : node_(NodeId::for_endpoint(1, kSelf), kSelf, /*token_secret=*/555) {}

  static constexpr Endpoint kSelf{IpAddress(10, 0, 0, 1), 6881};
  static constexpr Endpoint kAsker{IpAddress(10, 0, 0, 2), 7000};

  Response ask(Query& query, const Endpoint& from, SimTime now) {
    query.transaction_id = "t1";
    query.sender_id = NodeId::for_endpoint(1, from);
    const auto response = decode<Response>(handle(node_, encode(query), from, now));
    EXPECT_TRUE(response.has_value());
    return response.value_or(Response{});
  }

  /// The error the node answers `datagram` with.
  ErrorMessage error_reply(std::string_view datagram) {
    const auto error = ref_error(handle(node_, datagram, kAsker, 10));
    EXPECT_TRUE(error.has_value()) << datagram;
    return error.value_or(ErrorMessage{});
  }

  DhtNode node_;
};

TEST_F(DhtNodeTest, PingEchoesTransactionAndLearnsSender) {
  Query ping;
  ping.method = Method::Ping;
  const Response res = ask(ping, kAsker, 10);
  EXPECT_EQ(res.transaction_id, "t1");
  EXPECT_EQ(res.sender_id, node_.id());
  EXPECT_TRUE(has_contact(node_.table(), NodeId::for_endpoint(1, kAsker)));
}

TEST_F(DhtNodeTest, ReadOnlySendersStayOutOfTheTable) {
  Query ping;
  ping.method = Method::Ping;
  ping.read_only = true;
  ask(ping, kAsker, 10);
  EXPECT_EQ(contacts(node_.table()).size(), 0u);
}

TEST_F(DhtNodeTest, GetPeersReturnsNodesAlongsideValues) {
  // Teach the node a contact and store a peer, then ask.
  Query ping;
  ping.method = Method::Ping;
  ask(ping, kAsker, 10);

  Query get;
  get.method = Method::GetPeers;
  get.info_hash = Sha1::hash("wanted");
  const Response empty = ask(get, kAsker, 20);
  EXPECT_TRUE(empty.peers.empty());
  EXPECT_FALSE(empty.nodes.empty());
  ASSERT_FALSE(empty.token.empty());

  Query announce;
  announce.method = Method::AnnouncePeer;
  announce.info_hash = get.info_hash;
  announce.port = 7000;
  announce.token = empty.token;
  ask(announce, kAsker, 30);

  const Response full = ask(get, kAsker, 40);
  ASSERT_EQ(full.peers.size(), 1u);
  // Even with values in hand the reply keeps routing the lookup: both
  // values and closer nodes are present (the BEP 5 errata behaviour).
  EXPECT_FALSE(full.nodes.empty());
}

TEST_F(DhtNodeTest, AnnounceStoresSourceAddressNotClaimedOne) {
  Query get;
  get.method = Method::GetPeers;
  get.info_hash = Sha1::hash("spoof-proof");
  const Response res = ask(get, kAsker, 10);

  Query announce;
  announce.method = Method::AnnouncePeer;
  announce.info_hash = get.info_hash;
  announce.port = 9999;  // the port is the sender's claim...
  announce.token = res.token;
  ask(announce, kAsker, 20);

  const Response after = ask(get, kAsker, 30);
  ASSERT_EQ(after.peers.size(), 1u);
  // ...but the IP is taken from the datagram source — an address you do
  // not hold cannot be announced (unlike a tracker announce).
  EXPECT_EQ(after.peers[0], (Endpoint{kAsker.ip, 9999}));
}

TEST_F(DhtNodeTest, AnnounceWithBadTokenIsRejected) {
  Query announce;
  announce.method = Method::AnnouncePeer;
  announce.info_hash = Sha1::hash("no token");
  announce.port = 7000;
  announce.token = "forged!!";
  announce.transaction_id = "t9";
  announce.sender_id = NodeId::for_endpoint(1, kAsker);
  const std::string raw = handle(node_, encode(announce), kAsker, 10);
  const auto error = ref_error(raw);
  ASSERT_TRUE(error.has_value());
  EXPECT_EQ(error->code, kErrorProtocol);
  EXPECT_EQ(error->transaction_id, "t9");

  Query get;
  get.method = Method::GetPeers;
  get.info_hash = announce.info_hash;
  EXPECT_TRUE(ask(get, kAsker, 20).peers.empty());
}

TEST_F(DhtNodeTest, TokenFromAnotherIpIsRejected) {
  Query get;
  get.method = Method::GetPeers;
  get.info_hash = Sha1::hash("stolen token");
  const Response res = ask(get, kAsker, 10);

  const Endpoint thief{IpAddress(66, 6, 6, 6), 7000};
  Query announce;
  announce.method = Method::AnnouncePeer;
  announce.info_hash = get.info_hash;
  announce.port = 7000;
  announce.token = res.token;
  announce.transaction_id = "t2";
  announce.sender_id = NodeId::for_endpoint(1, thief);
  const auto error =
      ref_error(handle(node_, encode(announce), thief, 20));
  ASSERT_TRUE(error.has_value());
  EXPECT_EQ(error->code, kErrorProtocol);
}

TEST_F(DhtNodeTest, MalformedDatagramYieldsErrorMessage) {
  const auto error = ref_error(handle(node_, "garbage", kAsker, 10));
  ASSERT_TRUE(error.has_value());
  EXPECT_EQ(error->code, kErrorProtocol);
  EXPECT_EQ(error->transaction_id, "");  // nothing readable to echo
}

TEST_F(DhtNodeTest, UnknownMethodGets204AndEchoesTransactionId) {
  const auto error = error_reply(
      "d1:ad2:id20:aaaaaaaaaaaaaaaaaaaae1:q4:pong1:t2:xy1:y1:qe");
  EXPECT_EQ(error.code, kErrorUnknownMethod);
  EXPECT_EQ(error.message, "unknown method");
  EXPECT_EQ(error.transaction_id, "xy");
}

TEST_F(DhtNodeTest, MissingArgumentOfKnownMethodGets203) {
  // find_node without "target".
  const auto error = error_reply(
      "d1:ad2:id20:aaaaaaaaaaaaaaaaaaaae1:q9:find_node1:t2:ab1:y1:qe");
  EXPECT_EQ(error.code, kErrorProtocol);
  EXPECT_EQ(error.message, "malformed query");
  EXPECT_EQ(error.transaction_id, "ab");
}

TEST_F(DhtNodeTest, MistypedArgumentOfKnownMethodGets203) {
  // announce_peer whose "port" is a string.
  const auto error = error_reply(
      "d1:ad2:id20:aaaaaaaaaaaaaaaaaaaa9:info_hash20:bbbbbbbbbbbbbbbbbbbb"
      "4:port4:68815:token8:abcdefghe1:q13:announce_peer1:t2:cd1:y1:qe");
  EXPECT_EQ(error.code, kErrorProtocol);
  EXPECT_EQ(error.transaction_id, "cd");
}

TEST_F(DhtNodeTest, MissingMethodGets203) {
  const auto error =
      error_reply("d1:ad2:id20:aaaaaaaaaaaaaaaaaaaae1:t2:ef1:y1:qe");
  EXPECT_EQ(error.code, kErrorProtocol);
  EXPECT_EQ(error.transaction_id, "ef");
}

TEST_F(DhtNodeTest, NonStringTransactionIdIsNotEchoed) {
  const auto error =
      error_reply("d1:ad2:id20:aaaaaaaaaaaaaaaaaaaae1:q4:pong1:ti7e1:y1:qe");
  EXPECT_EQ(error.code, kErrorUnknownMethod);
  EXPECT_EQ(error.transaction_id, "");
}

// ---- typed answer vs. the wire ----

/// Two nodes built from the same id and secret and given the same history:
/// `typed_` is asked through answer(), `wire_` through handle() with the
/// query encoded and the reply decoded. Fed the same queries, they must
/// reply alike and stay in the same state.
class DhtNodeAnswerTest : public ::testing::Test {
 protected:
  static constexpr Endpoint kSelf{IpAddress(10, 0, 0, 1), 6881};
  static constexpr Endpoint kAsker{IpAddress(10, 0, 0, 2), 7000};
  static constexpr Endpoint kVantage{IpAddress(10, 88, 0, 1), 6881};

  DhtNodeAnswerTest()
      : typed_(NodeId::for_endpoint(1, kSelf), kSelf, /*token_secret=*/555),
        wire_(NodeId::for_endpoint(1, kSelf), kSelf, /*token_secret=*/555) {
    for (DhtNode* node : {&typed_, &wire_}) {
      // One contact in each of twelve low buckets: enough for a full reply,
      // and the top buckets, where a newcomer lands, keep room.
      for (int i = 0; i < 12; ++i) {
        const int bucket = 10 + 10 * i;
        NodeId id = node->id();
        id.bytes[19 - bucket / 8] ^= static_cast<std::uint8_t>(1 << (bucket % 8));
        node->table().observe(id, {IpAddress(0x0B000000u + i), 6881}, 1);
      }
      // More peers than one reply carries.
      for (std::uint32_t i = 0; i < 60; ++i) {
        node->store().announce(kStored, {IpAddress(0x0C000000u + i), 7000}, 2);
      }
    }
  }

  /// Asks both nodes `query`; expects equal replies and returns the typed.
  Response ask_both(Query query, const Endpoint& from, SimTime now) {
    query.transaction_id = "tx";
    query.sender_id = NodeId::for_endpoint(1, from);
    Response typed;
    EXPECT_TRUE(typed_.answer(query, from, now, typed));
    const auto wire = decode<Response>(handle(wire_, encode(query), from, now));
    EXPECT_TRUE(wire.has_value()) << to_string(query.method);
    if (wire) {
      EXPECT_EQ(typed.transaction_id, wire->transaction_id);
      EXPECT_EQ(typed.sender_id, wire->sender_id);
      EXPECT_EQ(typed.nodes, wire->nodes);
      EXPECT_EQ(typed.peers, wire->peers);
      EXPECT_EQ(typed.token, wire->token);
    }
    EXPECT_EQ(contacts(typed_.table()), contacts(wire_.table()));
    EXPECT_EQ(typed_.store().stored_peers(), wire_.store().stored_peers());
    return typed;
  }

  static inline const Sha1Digest kStored = Sha1::hash("stored");
  DhtNode typed_;
  DhtNode wire_;
};

TEST_F(DhtNodeAnswerTest, AnswerEqualsTheWireReplyForEveryMethod) {
  Query ping;
  ping.method = Method::Ping;
  const Response pong = ask_both(ping, kAsker, 10);
  EXPECT_EQ(pong.transaction_id, "tx");
  EXPECT_EQ(pong.sender_id, typed_.id());
  EXPECT_TRUE(has_contact(typed_.table(), NodeId::for_endpoint(1, kAsker)));

  Query find;
  find.method = Method::FindNode;
  find.target = NodeId::from_digest(Sha1::hash("target"));
  EXPECT_EQ(ask_both(find, kAsker, 20).nodes.size(),
            RoutingTable::kBucketSize);

  Query get;
  get.method = Method::GetPeers;
  get.info_hash = kStored;
  const Response plain = ask_both(get, kAsker, 30);
  EXPECT_EQ(plain.peers.size(), PeerStore::kMaxPeersPerReply);
  EXPECT_EQ(plain.nodes.size(), RoutingTable::kBucketSize);
  EXPECT_EQ(plain.token.size(), 8u);

  // A read-only sender is answered alike and learned by neither node.
  const std::size_t known = contacts(typed_.table()).size();
  get.read_only = true;
  const Response measured = ask_both(get, kVantage, 40);
  EXPECT_EQ(measured.peers, plain.peers);
  EXPECT_EQ(contacts(typed_.table()).size(), known);
  get.read_only = false;

  Query announce;
  announce.method = Method::AnnouncePeer;
  announce.info_hash = kStored;
  announce.port = 9000;
  announce.token = plain.token;
  const Response stored = ask_both(announce, kAsker, 50);
  EXPECT_TRUE(stored.nodes.empty());
  EXPECT_TRUE(stored.token.empty());
  // The announce reached both stores: the newest peer closes the window.
  EXPECT_EQ(ask_both(get, kAsker, 60).peers.back(),
            (Endpoint{kAsker.ip, 9000}));
}

TEST_F(DhtNodeAnswerTest, StaleOrForeignTokenIsRefusedAndStoresNothing) {
  Query get;
  get.method = Method::GetPeers;
  get.info_hash = Sha1::hash("refused");
  const SimTime issued = minutes(7);
  const Response res = ask_both(get, kAsker, issued);

  Query announce;
  announce.method = Method::AnnouncePeer;
  announce.info_hash = get.info_hash;
  announce.port = 7000;
  announce.token = res.token;
  announce.transaction_id = "tx";
  const Endpoint thief{IpAddress(66, 6, 6, 6), 7000};
  const std::size_t stored = typed_.store().stored_peers();
  const std::size_t hashes = typed_.store().stored_infohashes();
  Response out;

  // Two rotations later the asker's own token is stale.
  announce.sender_id = NodeId::for_endpoint(1, kAsker);
  EXPECT_FALSE(typed_.answer(announce, kAsker,
                             issued + 2 * TokenJar::kTokenRotate, out));
  // A token handed to another IP is foreign, even in its own epoch.
  announce.sender_id = NodeId::for_endpoint(1, thief);
  EXPECT_FALSE(typed_.answer(announce, thief, issued, out));
  EXPECT_EQ(typed_.store().stored_peers(), stored);
  EXPECT_EQ(typed_.store().stored_infohashes(), hashes);

  // The wire form of the same refusal is a 203 "bad token" error.
  const auto error =
      ref_error(handle(wire_, encode(announce), thief, issued));
  ASSERT_TRUE(error.has_value());
  EXPECT_EQ(error->code, kErrorProtocol);
  EXPECT_EQ(error->message, "bad token");
  EXPECT_EQ(error->transaction_id, "tx");
  EXPECT_EQ(wire_.store().stored_peers(), stored);
}

// ---- walk frontier ----

/// The walk state as the lookups kept it before the frontier: a plain
/// candidate list, deduplicated by endpoint.
struct ReferenceWalk {
  NodeId target;
  Endpoint self;
  std::vector<Frontier::Candidate> candidates;
  std::set<Endpoint> known;

  void add(const Endpoint& endpoint, const NodeId* id) {
    if (endpoint == self || !known.insert(endpoint).second) return;
    Frontier::Candidate c;
    c.endpoint = endpoint;
    if (id != nullptr) {
      c.id = *id;
      c.id_known = true;
    }
    candidates.push_back(c);
  }

  /// Rebuild `ranked` from the live id-known candidates, sort it fully and
  /// take up to alpha unqueried entries from its first k, after every
  /// unqueried id-less entry.
  std::vector<std::uint32_t> round(std::size_t k, std::size_t alpha) const {
    std::vector<std::uint32_t> round;
    std::vector<std::uint32_t> ranked;
    for (std::uint32_t i = 0; i < candidates.size(); ++i) {
      const Frontier::Candidate& c = candidates[i];
      if (!c.queried && !c.id_known) round.push_back(i);
      if (c.id_known && (!c.queried || c.responded)) ranked.push_back(i);
    }
    std::sort(ranked.begin(), ranked.end(), [&](std::uint32_t a, std::uint32_t b) {
      return closer(candidates[a].id, candidates[b].id, target);
    });
    for (std::size_t r = 0; r < ranked.size() && r < k && round.size() < alpha;
         ++r) {
      if (!candidates[ranked[r]].queried) round.push_back(ranked[r]);
    }
    if (round.size() > alpha) round.resize(alpha);
    return round;
  }

  std::vector<std::uint32_t> closest_responders(std::size_t k) const {
    std::vector<std::uint32_t> out;
    for (std::uint32_t i = 0; i < candidates.size(); ++i) {
      if (candidates[i].responded) out.push_back(i);
    }
    std::sort(out.begin(), out.end(), [&](std::uint32_t a, std::uint32_t b) {
      return closer(candidates[a].id, candidates[b].id, target);
    });
    if (out.size() > k) out.resize(k);
    return out;
  }
};

/// Drives a Frontier and the reference through one seeded random walk,
/// checking after every step that both hold the same candidates and pick
/// the same round. Returns the number of rounds checked.
std::size_t check_frontier_walk(std::uint64_t seed, std::size_t k,
                                std::size_t alpha) {
  Rng rng(seed);
  NodeId target;
  for (auto& byte : target.bytes) byte = static_cast<std::uint8_t>(rng.index(256));
  const Endpoint self{IpAddress(10, 0, 0, 1), 6881};
  // A small address pool, so duplicates and `self` come up often. Ids
  // derive from endpoints (as in the overlay), so no two endpoints share
  // one; an id change draws from another seed.
  const auto endpoint = [&] {
    return Endpoint{IpAddress(10, 0, 0, static_cast<std::uint8_t>(1 + rng.index(200))),
                    6881};
  };
  Frontier frontier;
  ReferenceWalk ref{target, self, {}, {}};
  frontier.reset(target, self);

  std::size_t rounds = 0;
  std::vector<std::uint32_t> got;
  const auto check = [&](const char* step) {
    ASSERT_EQ(frontier.size(), ref.candidates.size()) << step;
    for (std::uint32_t i = 0; i < frontier.size(); ++i) {
      ASSERT_EQ(frontier[i].endpoint, ref.candidates[i].endpoint) << step;
      ASSERT_EQ(frontier[i].id_known, ref.candidates[i].id_known) << step;
      if (frontier[i].id_known) {
        ASSERT_EQ(frontier[i].id, ref.candidates[i].id) << step;
      }
    }
    frontier.select(k, alpha, got);
    ASSERT_EQ(got, ref.round(k, alpha))
        << step << " (seed " << seed << ", k " << k << ", alpha " << alpha << ")";
    std::vector<std::uint32_t> closest;
    frontier.closest_responders(k, closest);
    ASSERT_EQ(closest, ref.closest_responders(k)) << step;
  };
  const auto add = [&](bool idless) {
    const Endpoint e = endpoint();
    const NodeId id = NodeId::for_endpoint(seed, e);
    frontier.add(e, idless ? nullptr : &id);
    ref.add(e, idless ? nullptr : &id);
  };

  // Bootstrap: a few id-less hints, some id-known seeds.
  for (std::size_t i = rng.index(4); i > 0; --i) add(true);
  for (std::size_t i = rng.index(12); i > 0; --i) add(false);
  check("bootstrap");
  while (true) {
    frontier.select(k, alpha, got);
    if (got.empty()) break;
    ++rounds;
    const std::vector<std::uint32_t> round = got;
    for (const std::uint32_t index : round) {
      frontier.mark_queried(index);
      ref.candidates[index].queried = true;
      check("queried");
    }
    for (const std::uint32_t index : round) {
      Frontier::Candidate& c = ref.candidates[index];
      const double roll = rng.uniform();
      if (roll < 0.35) {  // timeout, error or bogus reply
        frontier.failed(index);
        check("failed");
        continue;
      }
      // Answers under its own id, or (rarely) under another one.
      NodeId id = NodeId::for_endpoint(seed, c.endpoint);
      if (roll > 0.9) id = NodeId::for_endpoint(seed + 1 + rng.index(1000), c.endpoint);
      frontier.responded(index, id);
      c.responded = true;
      c.id = id;
      c.id_known = true;
      check("responded");
      for (std::size_t n = rng.index(9); n > 0; --n) {
        add(false);
        check("added");
      }
    }
  }
  // Converged: nothing unqueried is left in any selectable slot.
  check("converged");
  return rounds;
}

TEST(FrontierTest, RoundsMatchAFullResortOnRandomWalks) {
  std::size_t rounds = 0;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    for (const std::size_t k : {std::size_t{1}, std::size_t{3},
                                RoutingTable::kBucketSize, std::size_t{20}}) {
      for (const std::size_t alpha : {std::size_t{1}, std::size_t{3}, std::size_t{8}}) {
        rounds += check_frontier_walk(seed * 131 + k * 7 + alpha, k, alpha);
        if (HasFatalFailure()) return;
      }
    }
  }
  EXPECT_GT(rounds, 1000u);
}

TEST(FrontierTest, FewerThanKLiveAndAllQueried) {
  NodeId target;
  const Endpoint self{IpAddress(10, 0, 0, 1), 6881};
  Frontier frontier;
  frontier.reset(target, self);
  std::vector<std::uint32_t> round;
  frontier.select(RoutingTable::kBucketSize, 3, round);
  EXPECT_TRUE(round.empty());  // nothing known

  // Two id-known candidates and one id-less hint; `self` and a duplicate
  // are ignored.
  const NodeId near = id_with(0x01);
  const NodeId far = id_with(0x40);
  frontier.add(self, &near);
  frontier.add({IpAddress(10, 0, 0, 3), 1}, &far);
  frontier.add({IpAddress(10, 0, 0, 2), 1}, &near);
  frontier.add({IpAddress(10, 0, 0, 2), 1}, &far);
  frontier.add({IpAddress(10, 0, 0, 4), 1}, nullptr);
  ASSERT_EQ(frontier.size(), 3u);

  // The id-less hint goes first, then the closest: fewer than k live.
  frontier.select(RoutingTable::kBucketSize, 3, round);
  EXPECT_EQ(round, (std::vector<std::uint32_t>{2, 1, 0}));
  frontier.select(RoutingTable::kBucketSize, 2, round);
  EXPECT_EQ(round, (std::vector<std::uint32_t>{2, 1}));
  // k = 1: only the closest slot is read.
  frontier.select(1, 3, round);
  EXPECT_EQ(round, (std::vector<std::uint32_t>{2, 1}));

  for (const std::uint32_t i : {0u, 1u, 2u}) frontier.mark_queried(i);
  frontier.select(RoutingTable::kBucketSize, 3, round);
  EXPECT_TRUE(round.empty());  // all queried, answers pending
  frontier.responded(1, near);
  frontier.failed(0);
  frontier.responded(2, id_with(0x02));
  frontier.select(RoutingTable::kBucketSize, 3, round);
  EXPECT_TRUE(round.empty());  // all queried: converged

  std::vector<std::uint32_t> closest;
  frontier.closest_responders(RoutingTable::kBucketSize, closest);
  EXPECT_EQ(closest, (std::vector<std::uint32_t>{1, 2}));
  frontier.closest_responders(1, closest);
  EXPECT_EQ(closest, (std::vector<std::uint32_t>{1}));

  // A reset walk starts empty and forgets every endpoint.
  frontier.reset(target, self);
  EXPECT_EQ(frontier.size(), 0u);
  frontier.add({IpAddress(10, 0, 0, 2), 1}, &near);
  EXPECT_EQ(frontier.size(), 1u);
}

TEST(FrontierTest, EndpointKeysDedupAcrossGrowthAndClears) {
  KeySet set;
  for (std::uint32_t round = 0; round < 3; ++round) {
    for (std::uint32_t i = 0; i < 1000; ++i) {
      const IpAddress ip(0x0A000000u + i);
      EXPECT_TRUE(set.insert(endpoint_key({ip, 6881})));
      EXPECT_FALSE(set.insert(endpoint_key({ip, 6881})));
      EXPECT_TRUE(set.insert(endpoint_key({ip, 6882})));  // port counts
    }
    EXPECT_EQ(set.size(), 2000u);
    set.clear();
    EXPECT_EQ(set.size(), 0u);
  }
}

}  // namespace
}  // namespace btpub::dht
