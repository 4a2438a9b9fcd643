// Tracker protocol tests: announce wire format, sampling, rate limiting.
#include "tracker/tracker.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "announce_support.hpp"
#include "bencode/bencode.hpp"
#include "bencode_tree.hpp"
#include "tracker/announce.hpp"
#include "util/rng.hpp"

namespace btpub {
namespace {

PeerSession session(std::uint32_t ip, SimTime arrive, SimTime depart,
                    bool seeder = false) {
  PeerSession s;
  s.endpoint = Endpoint{IpAddress(ip), 6881};
  s.arrive = arrive;
  s.depart = depart;
  if (seeder) s.complete_at = arrive;
  return s;
}

class TrackerTest : public ::testing::Test {
 protected:
  TrackerTest() : tracker_(TrackerConfig{}, Rng(5)) {
    swarm_ = Swarm(Sha1::hash("tracked"), 64, 0);
    swarm_.add_session(session(1, 0, 100000, /*seeder=*/true));
    for (std::uint32_t i = 2; i <= 300; ++i) {
      swarm_.add_session(session(i, 0, 100000));
    }
    swarm_.finalize();
    tracker_.host_swarm(swarm_);
  }

  AnnounceRequest request(std::uint32_t client_ip, SimTime now,
                          std::size_t numwant = 200) {
    AnnounceRequest r;
    r.infohash = swarm_.infohash();
    r.client = Endpoint{IpAddress(client_ip), 6881};
    r.numwant = numwant;
    r.now = now;
    return r;
  }

  Tracker tracker_;
  Swarm swarm_;
};

TEST_F(TrackerTest, AnnounceReturnsCountsAndPeers) {
  const AnnounceReply reply = announce(tracker_, request(0x0A000001, 10));
  ASSERT_TRUE(reply.ok);
  EXPECT_EQ(reply.complete, 1u);
  EXPECT_EQ(reply.incomplete, 299u);
  EXPECT_EQ(reply.peers.size(), 200u);  // capped at max_numwant
  EXPECT_EQ(reply.interval, tracker_.enforced_gap());
}

TEST_F(TrackerTest, NumwantBelowCapHonoured) {
  const AnnounceReply reply = announce(tracker_, request(0x0A000002, 10, 50));
  ASSERT_TRUE(reply.ok);
  EXPECT_EQ(reply.peers.size(), 50u);
}

TEST_F(TrackerTest, NumwantAboveCapClamped) {
  const AnnounceReply reply = announce(tracker_, request(0x0A000003, 10, 5000));
  ASSERT_TRUE(reply.ok);
  EXPECT_EQ(reply.peers.size(), 200u);
}

TEST_F(TrackerTest, UnknownTorrentFails) {
  AnnounceRequest r = request(0x0A000004, 10);
  r.infohash = Sha1::hash("not hosted");
  const AnnounceReply reply = announce(tracker_, r);
  EXPECT_FALSE(reply.ok);
  EXPECT_EQ(reply.failure_reason, "unregistered torrent");
  EXPECT_EQ(tracker_.stats().rejected_unknown, 1u);
}

TEST_F(TrackerTest, RateLimitingKicksIn) {
  const auto gap = tracker_.enforced_gap();
  ASSERT_TRUE(announce(tracker_, request(0x0A000005, 0)).ok);
  // Same client, same torrent, too soon.
  const AnnounceReply reply = announce(tracker_, request(0x0A000005, gap / 2));
  EXPECT_FALSE(reply.ok);
  EXPECT_EQ(reply.failure_reason, "slow down");
  // After the full gap: fine again.
  EXPECT_TRUE(announce(tracker_, request(0x0A000005, gap + 1)).ok);
}

TEST_F(TrackerTest, RateLimitIsPerClient) {
  ASSERT_TRUE(announce(tracker_, request(0x0A000006, 0)).ok);
  EXPECT_TRUE(announce(tracker_, request(0x0A000007, 1)).ok);
}

TEST_F(TrackerTest, PersistentAbuseGetsBlacklisted) {
  const IpAddress abuser(0x0A0000FF);
  AnnounceRequest r;
  r.infohash = swarm_.infohash();
  r.client = Endpoint{abuser, 1};
  r.now = 0;
  ASSERT_TRUE(announce(tracker_, r).ok);
  // Each query below the gap is a violation, refused as "slow down" until
  // the kBlacklistAfter-th one bans the client.
  for (std::uint32_t i = 0; i < kBlacklistAfter; ++i) {
    r.now = i + 1;  // way below the gap
    const AnnounceReply refused = announce(tracker_, r);
    EXPECT_FALSE(refused.ok);
    EXPECT_EQ(refused.failure_reason, "slow down") << i;
  }
  EXPECT_EQ(tracker_.stats().rejected_blacklist, 0u);
  r.now = days(10);
  const AnnounceReply reply = announce(tracker_, r);
  EXPECT_FALSE(reply.ok);
  EXPECT_EQ(reply.failure_reason, "client banned");
  EXPECT_EQ(tracker_.stats().rejected_blacklist, 1u);
}

TEST_F(TrackerTest, HandleGetFullRoundTrip) {
  const std::string query = to_query_string(request(0x0A000008, 10));
  const std::string body = handle_get(tracker_, query);
  const AnnounceReply reply = decode_announce_reply(body);
  ASSERT_TRUE(reply.ok);
  EXPECT_EQ(reply.complete, 1u);
  EXPECT_EQ(reply.peers.size(), 200u);
}

TEST_F(TrackerTest, HandleGetMalformedQuery) {
  const AnnounceReply reply = decode_announce_reply(handle_get(tracker_, "garbage"));
  EXPECT_FALSE(reply.ok);
  EXPECT_EQ(reply.failure_reason, "malformed request");
}

TEST_F(TrackerTest, ScrapeReportsCounters) {
  const std::string body = tracker_.scrape(swarm_.infohash(), 10);
  const auto root = bencode::decode(body);
  const auto& files = root.at("files").as_dict();
  ASSERT_EQ(files.size(), 1u);
  const auto& entry = files.begin()->second;
  EXPECT_EQ(entry.at("complete").as_integer(), 1);
  EXPECT_EQ(entry.at("incomplete").as_integer(), 299);
}

TEST_F(TrackerTest, ScrapeUnknownHashEmpty) {
  const std::string body = tracker_.scrape(Sha1::hash("zzz"), 10);
  const auto root = bencode::decode(body);
  EXPECT_TRUE(root.at("files").as_dict().empty());
}

TEST_F(TrackerTest, ScrapeBytesArePinned) {
  const Sha1Digest hosted = swarm_.infohash();
  const std::string hash(reinterpret_cast<const char*>(hosted.bytes.data()),
                         hosted.bytes.size());
  EXPECT_EQ(tracker_.scrape(hosted, 10),
            "d5:filesd20:" + hash +
                "d8:completei1e10:downloadedi300e10:incompletei299eeee");
  EXPECT_EQ(tracker_.scrape(Sha1::hash("zzz"), 10), "d5:filesdee");
}

TEST_F(TrackerTest, HostRequiresFinalizedSwarm) {
  Swarm raw(Sha1::hash("raw"), 8, 0);
  EXPECT_THROW(tracker_.host_swarm(raw), std::logic_error);
}

TEST(TrackerConfigTest, BadGapOrderingThrows) {
  TrackerConfig config;
  config.min_query_gap = minutes(15);
  config.max_query_gap = minutes(10);
  EXPECT_THROW(Tracker(config, Rng(1)), std::invalid_argument);
}

TEST(TrackerConfigTest, EnforcedGapWithinBounds) {
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    Tracker tracker(TrackerConfig{}, Rng(seed));
    EXPECT_GE(tracker.enforced_gap(), minutes(10));
    EXPECT_LE(tracker.enforced_gap(), minutes(15));
  }
}

// --- announce wire helpers ---

TEST(AnnounceWire, UrlEscapeRoundTrip) {
  std::string binary;
  for (int i = 0; i < 256; ++i) binary.push_back(static_cast<char>(i));
  EXPECT_EQ(url_unescape(url_escape(binary)), binary);
}

TEST(AnnounceWire, UrlUnescapeRejectsMalformed) {
  EXPECT_THROW(url_unescape("%"), std::invalid_argument);
  EXPECT_THROW(url_unescape("%f"), std::invalid_argument);
  EXPECT_THROW(url_unescape("%zz"), std::invalid_argument);
}

TEST(AnnounceWire, QueryStringRoundTrip) {
  AnnounceRequest r;
  r.infohash = Sha1::hash("infohash");
  r.client = Endpoint{IpAddress(81, 93, 5, 7), 51413};
  r.numwant = 123;
  r.now = 98765;
  const auto parsed = parse_query_string(to_query_string(r));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->infohash, r.infohash);
  EXPECT_EQ(parsed->client, r.client);
  EXPECT_EQ(parsed->numwant, r.numwant);
  EXPECT_EQ(parsed->now, r.now);
}

TEST(AnnounceWire, QueryStringMissingFieldsRejected) {
  EXPECT_FALSE(parse_query_string("/announce?ip=1.2.3.4&port=1").has_value());
  EXPECT_FALSE(parse_query_string("no-question-mark").has_value());
  EXPECT_FALSE(
      parse_query_string("/announce?info_hash=%41&ip=1.2.3.4&port=1").has_value());
  EXPECT_FALSE(parse_query_string("/announce?info_hash=" + url_escape(std::string(20, 'x')) +
                                  "&ip=1.2.3.4&port=99999")
                   .has_value());
}

TEST(AnnounceWire, QueryStringDuplicateKeysLastWins) {
  const std::string hash_a = url_escape(std::string(20, 'a'));
  const std::string hash_b = url_escape(std::string(20, 'b'));
  const auto parsed = parse_query_string(
      "/announce?info_hash=" + hash_a + "&info_hash=" + hash_b +
      "&ip=1.2.3.4&ip=5.6.7.8&port=10&port=20&numwant=5&numwant=7");
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->infohash.bytes[0], static_cast<std::uint8_t>('b'));
  EXPECT_EQ(parsed->client.ip, IpAddress(5, 6, 7, 8));
  EXPECT_EQ(parsed->client.port, 20);
  EXPECT_EQ(parsed->numwant, 7u);
}

TEST(AnnounceWire, QueryStringMalformedHashEscapesRejected) {
  // Bad hex digits, truncated escape, and an escape that decodes short.
  EXPECT_FALSE(
      parse_query_string("/announce?info_hash=%zz" + url_escape(std::string(18, 'x')) +
                         "&ip=1.2.3.4&port=1")
          .has_value());
  EXPECT_FALSE(parse_query_string("/announce?info_hash=" +
                                  url_escape(std::string(19, 'x')) +
                                  "%4&ip=1.2.3.4&port=1")
                   .has_value());
  // 21 decoded bytes: one too many for a SHA-1 digest.
  EXPECT_FALSE(parse_query_string("/announce?info_hash=" +
                                  url_escape(std::string(21, 'x')) +
                                  "&ip=1.2.3.4&port=1")
                   .has_value());
}

TEST(AnnounceWire, QueryStringOutOfRangePortRejected) {
  const std::string hash = url_escape(std::string(20, 'x'));
  EXPECT_FALSE(parse_query_string("/announce?info_hash=" + hash +
                                  "&ip=1.2.3.4&port=65536")
                   .has_value());
  EXPECT_FALSE(parse_query_string("/announce?info_hash=" + hash +
                                  "&ip=1.2.3.4&port=-1")
                   .has_value());
  EXPECT_FALSE(parse_query_string("/announce?info_hash=" + hash +
                                  "&ip=1.2.3.4&port=")
                   .has_value());
  const auto max_port = parse_query_string("/announce?info_hash=" + hash +
                                           "&ip=1.2.3.4&port=65535");
  ASSERT_TRUE(max_port.has_value());
  EXPECT_EQ(max_port->client.port, 65535);
}

TEST(AnnounceWire, QueryStringMissingTimestampDefaultsToZero) {
  // `t` carries the simulated clock in-band; a query without it is still
  // well-formed and lands at t=0 (a real tracker would use wall time).
  const auto parsed = parse_query_string(
      "/announce?info_hash=" + url_escape(std::string(20, 'x')) +
      "&ip=1.2.3.4&port=6881");
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->now, 0);
  EXPECT_EQ(parsed->numwant, 200u);  // default when absent
}

TEST(AnnounceWire, QueryStringMalformedPairsRejected) {
  const std::string hash = url_escape(std::string(20, 'x'));
  // A pair without '=' poisons the whole query.
  EXPECT_FALSE(parse_query_string("/announce?info_hash=" + hash +
                                  "&ip=1.2.3.4&port=1&junk")
                   .has_value());
  // Non-numeric numwant / t are rejected rather than ignored.
  EXPECT_FALSE(parse_query_string("/announce?info_hash=" + hash +
                                  "&ip=1.2.3.4&port=1&numwant=abc")
                   .has_value());
  EXPECT_FALSE(parse_query_string("/announce?info_hash=" + hash +
                                  "&ip=1.2.3.4&port=1&t=abc")
                   .has_value());
  // Unknown keys are tolerated (real clients send peer_id, event, ...).
  EXPECT_TRUE(parse_query_string("/announce?info_hash=" + hash +
                                 "&ip=1.2.3.4&port=1&event=started")
                  .has_value());
}

TEST(AnnounceWire, ReplyEncodingRoundTrip) {
  AnnounceReply reply;
  reply.ok = true;
  reply.interval = minutes(12);
  reply.complete = 3;
  reply.incomplete = 17;
  reply.peers = {{IpAddress(1, 2, 3, 4), 6881}, {IpAddress(5, 6, 7, 8), 1234}};
  const AnnounceReply decoded = decode_announce_reply(encode_reply(reply));
  EXPECT_TRUE(decoded.ok);
  EXPECT_EQ(decoded.interval, reply.interval);
  EXPECT_EQ(decoded.complete, 3u);
  EXPECT_EQ(decoded.incomplete, 17u);
  EXPECT_EQ(decoded.peers, reply.peers);
}

TEST(AnnounceWire, FailureEncodingRoundTrip) {
  AnnounceReply reply;
  reply.ok = false;
  reply.failure_reason = "slow down";
  const AnnounceReply decoded = decode_announce_reply(encode_reply(reply));
  EXPECT_FALSE(decoded.ok);
  EXPECT_EQ(decoded.failure_reason, "slow down");
  EXPECT_TRUE(decoded.peers.empty());
}

}  // namespace
}  // namespace btpub
