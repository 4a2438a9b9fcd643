// netio_udp_wire_test — the BEP 15 serving path over real loopback
// sockets: byte-identity of socket-served announces against the direct
// announce_into fast path, scrape correctness, and a fuzz sweep of
// malformed datagrams (truncated, bad action, stale connection id,
// oversized numwant, random bytes) that must never kill the daemon.
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <optional>
#include <string>

#include <gtest/gtest.h>

#include "netio/loadgen.hpp"
#include "netio/serve.hpp"
#include "netio/socket.hpp"
#include "tracker/tracker.hpp"
#include "tracker/udp.hpp"
#include "tracker/udp_server.hpp"
#include "udp_support.hpp"
#include "util/rng.hpp"

namespace btpub::netio {
namespace {

constexpr std::uint64_t kSeed = 97;
constexpr std::size_t kSwarms = 4;
constexpr std::size_t kPeers = 200;
const SimTime kFrozen = hours(2);

ServeConfig test_config() {
  ServeConfig config;
  config.shards = 1;
  config.swarms = kSwarms;
  config.peers_per_swarm = kPeers;
  config.seed = kSeed;
  config.enable_http = false;
  config.fixed_time = kFrozen;
  return config;
}

/// A blocking-ish client: connected UDP socket + poll with a deadline.
class WireClient {
 public:
  explicit WireClient(std::uint16_t port)
      : fd_(make_udp_client_socket("127.0.0.1", port)) {}

  void send_raw(std::string_view datagram) {
    ASSERT_EQ(send(fd_.get(), datagram.data(), datagram.size(), 0),
              static_cast<ssize_t>(datagram.size()));
  }

  std::optional<std::string> recv_one(int timeout_ms = 2000) {
    pollfd p{fd_.get(), POLLIN, 0};
    if (poll(&p, 1, timeout_ms) <= 0) return std::nullopt;
    char buf[4096];
    const ssize_t n = recv(fd_.get(), buf, sizeof buf, 0);
    if (n < 0) return std::nullopt;
    return std::string(buf, static_cast<std::size_t>(n));
  }

  std::uint64_t connect_handshake(std::uint32_t tid = 1) {
    UdpConnectRequest request{tid};
    send_raw(encode(request));
    const auto raw = recv_one();
    EXPECT_TRUE(raw.has_value());
    const auto response = UdpConnectResponse::decode(*raw);
    EXPECT_TRUE(response.has_value());
    EXPECT_EQ(response->transaction_id, tid);
    return response->connection_id;
  }

 private:
  FdHandle fd_;
};

/// The daemon's world and tracker, rebuilt in-process: same seed, same
/// config — replies must match the wire byte for byte.
struct LocalReplica {
  std::vector<Swarm> world;
  Tracker tracker;

  LocalReplica()
      : world(build_serve_world(kSeed, kSwarms, kPeers)),
        tracker(replica_config(), Rng(derive_seed(kSeed, kTrackerSeedTag))) {
    for (Swarm& swarm : world) tracker.host_swarm(swarm);
  }

  static TrackerConfig replica_config() {
    TrackerConfig config;
    config.min_query_gap = 0;
    config.max_query_gap = 0;
    return config;
  }

  // Matches serve.cpp's tracker seed derivation; the test breaks loudly if
  // the daemon changes its seeding scheme (that would silently break
  // shard-replica byte-identity too).
  static constexpr std::uint64_t kTrackerSeedTag = 0x6e657453'65727665ULL;
};

TEST(NetioUdpWire, AnnounceBytesMatchDirectFastPath) {
  ServeDaemon daemon(test_config());
  daemon.start();
  WireClient client(daemon.udp_port());
  const std::uint64_t cid = client.connect_handshake();

  LocalReplica replica;
  AnnounceReply reply;
  Tracker::AnnounceScratch scratch;

  for (std::size_t s = 0; s < kSwarms; ++s) {
    UdpAnnounceRequest announce;
    announce.connection_id = cid;
    announce.transaction_id = 100 + static_cast<std::uint32_t>(s);
    announce.infohash = serve_swarm_infohash(kSeed, s);
    announce.ip = 0x0B010000u + static_cast<std::uint32_t>(s);
    announce.port = 6881;
    announce.num_want = 50;
    client.send_raw(encode(announce));
    const auto wire = client.recv_one();
    ASSERT_TRUE(wire.has_value());

    AnnounceRequest direct;
    direct.infohash = announce.infohash;
    direct.client = Endpoint{IpAddress(announce.ip), announce.port};
    direct.numwant = announce.num_want;
    direct.now = kFrozen;
    replica.tracker.announce_into(direct, reply, scratch);
    ASSERT_TRUE(reply.ok);
    std::string expected;
    UdpTrackerEndpoint::encode_announce_response_into(
        announce.transaction_id, reply, expected);
    EXPECT_EQ(*wire, expected) << "swarm " << s;
  }

  daemon.request_stop();
  daemon.join();
}

TEST(NetioUdpWire, ScrapeCountsHostedAndUnhostedRows) {
  ServeDaemon daemon(test_config());
  daemon.start();
  WireClient client(daemon.udp_port());
  const std::uint64_t cid = client.connect_handshake();

  UdpScrapeRequest scrape;
  scrape.connection_id = cid;
  scrape.transaction_id = 9;
  scrape.infohashes = {serve_swarm_infohash(kSeed, 0),
                       Sha1::hash("not a served swarm")};
  client.send_raw(encode(scrape));
  const auto wire = client.recv_one();
  ASSERT_TRUE(wire.has_value());
  const auto response = decode_scrape_response(*wire);
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->transaction_id, 9u);
  ASSERT_EQ(response->entries.size(), 2u);
  // Every served peer is present at the frozen time; ~1/7 completed.
  EXPECT_GT(response->entries[0].seeders, 0u);
  EXPECT_GT(response->entries[0].leechers, 0u);
  EXPECT_EQ(response->entries[0].seeders + response->entries[0].leechers,
            kPeers);
  EXPECT_EQ(response->entries[1], UdpScrapeEntry{});

  daemon.request_stop();
  daemon.join();
}

TEST(NetioUdpWire, ShortDatagramsAreDroppedNotAnswered) {
  ServeDaemon daemon(test_config());
  daemon.start();
  {
    WireClient client(daemon.udp_port());
    const std::string valid = encode(UdpConnectRequest{5});
    // All 16 too-short prefixes, then one valid connect: the only reply
    // must be the connect response (everything shorter was dropped).
    for (std::size_t len = 0; len < 16; ++len) {
      client.send_raw(std::string_view(valid).substr(0, len));
    }
    client.send_raw(valid);
    const auto raw = client.recv_one();
    ASSERT_TRUE(raw.has_value());
    const auto response = UdpConnectResponse::decode(*raw);
    ASSERT_TRUE(response.has_value());
    EXPECT_EQ(response->transaction_id, 5u);
    EXPECT_FALSE(client.recv_one(200).has_value());
  }
  daemon.request_stop();
  daemon.join();
  const ServeStats stats = daemon.stats();
  EXPECT_EQ(stats.dropped_short, 16u);
  EXPECT_EQ(stats.responses_tx, stats.datagrams_rx - stats.dropped_short);
}

TEST(NetioUdpWire, TruncatedAnnouncesGetErrorReplies) {
  ServeDaemon daemon(test_config());
  daemon.start();
  WireClient client(daemon.udp_port());
  const std::uint64_t cid = client.connect_handshake();

  UdpAnnounceRequest announce;
  announce.connection_id = cid;
  announce.transaction_id = 77;
  announce.infohash = serve_swarm_infohash(kSeed, 0);
  announce.port = 6881;
  const std::string full = encode(announce);
  ASSERT_EQ(full.size(), 98u);

  // Every truncation in [16, 98) must be answered (with an error — a
  // truncated announce can never decode) and must not kill the daemon.
  std::size_t sent = 0;
  for (std::size_t len = 16; len < full.size(); ++len) {
    client.send_raw(std::string_view(full).substr(0, len));
    ++sent;
    const auto raw = client.recv_one();
    ASSERT_TRUE(raw.has_value()) << "no reply at length " << len;
    EXPECT_EQ(udp_response_action(*raw), UdpAction::Error);
  }
  EXPECT_EQ(sent, 82u);

  daemon.request_stop();
  daemon.join();
}

TEST(NetioUdpWire, MalformedAndHostileDatagramsNeverCrashTheDaemon) {
  ServeDaemon daemon(test_config());
  daemon.start();
  WireClient client(daemon.udp_port());
  const std::uint64_t cid = client.connect_handshake();

  // Bad action value.
  {
    std::string bad(16, '\0');
    bad[11] = 99;  // action field (offset 8..11), not a known action
    client.send_raw(bad);
    const auto raw = client.recv_one();
    ASSERT_TRUE(raw.has_value());
    const auto error = UdpErrorResponse::decode(*raw);
    ASSERT_TRUE(error.has_value());
    EXPECT_EQ(error->message, "malformed datagram");
  }

  // Stale / fabricated connection id.
  {
    UdpAnnounceRequest announce;
    announce.connection_id = cid ^ 0xDEADBEEFULL;
    announce.transaction_id = 13;
    announce.infohash = serve_swarm_infohash(kSeed, 1);
    announce.port = 6881;
    client.send_raw(encode(announce));
    const auto raw = client.recv_one();
    ASSERT_TRUE(raw.has_value());
    const auto error = UdpErrorResponse::decode(*raw);
    ASSERT_TRUE(error.has_value());
    EXPECT_EQ(error->transaction_id, 13u);
    EXPECT_EQ(error->message, "invalid connection id");
  }

  // Oversized numwant: clamped to the tracker's max, never a huge reply.
  {
    UdpAnnounceRequest announce;
    announce.connection_id = cid;
    announce.transaction_id = 14;
    announce.infohash = serve_swarm_infohash(kSeed, 1);
    announce.ip = 0x0B020304u;
    announce.port = 6881;
    announce.num_want = 0xFFFFFFFEu;  // huge, but not the ~0 sentinel
    client.send_raw(encode(announce));
    const auto raw = client.recv_one();
    ASSERT_TRUE(raw.has_value());
    const auto response = UdpAnnounceResponse::decode(*raw);
    ASSERT_TRUE(response.has_value());
    EXPECT_LE(response->peers.size(), TrackerConfig{}.max_numwant);
  }

  // 200 random-byte datagrams of random lengths.
  {
    Rng rng(123);
    for (int i = 0; i < 200; ++i) {
      std::string noise(16 + rng.next() % 104, '\0');
      for (char& c : noise) c = static_cast<char>(rng.next());
      client.send_raw(noise);
      ASSERT_TRUE(client.recv_one().has_value()) << "datagram " << i;
    }
  }

  // The daemon is still fully functional afterwards.
  {
    UdpAnnounceRequest announce;
    announce.connection_id = cid;
    announce.transaction_id = 15;
    announce.infohash = serve_swarm_infohash(kSeed, 2);
    announce.ip = 0x0B030303u;
    announce.port = 6881;
    announce.num_want = 10;
    client.send_raw(encode(announce));
    const auto raw = client.recv_one();
    ASSERT_TRUE(raw.has_value());
    const auto response = UdpAnnounceResponse::decode(*raw);
    ASSERT_TRUE(response.has_value());
    EXPECT_EQ(response->transaction_id, 15u);
    EXPECT_EQ(response->peers.size(), 10u);
  }

  daemon.request_stop();
  daemon.join();
  EXPECT_GT(daemon.stats().malformed, 0u);
}

TEST(NetioUdpWire, LatencyHistogramBucketsAndPercentiles) {
  LatencyHistogram hist;
  for (std::uint64_t v = 1; v <= 1000; ++v) hist.record(v * 1000);
  EXPECT_EQ(hist.total(), 1000u);
  // Buckets are ~12.5% wide: percentiles land within one bucket of truth.
  EXPECT_NEAR(static_cast<double>(hist.percentile_ns(0.5)), 500e3, 70e3);
  EXPECT_NEAR(static_cast<double>(hist.percentile_ns(0.99)), 990e3, 130e3);
  EXPECT_LE(hist.percentile_ns(0.0), 1500u);

  LatencyHistogram other;
  other.record(42);
  other.merge(hist);
  EXPECT_EQ(other.total(), 1001u);
}

}  // namespace
}  // namespace btpub::netio
