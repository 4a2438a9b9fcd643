// Announce fast-path contract tests:
//   * golden response bytes for a fixed (seed, query) pair — the
//     zero-allocation refactor must not move a single byte on the wire;
//   * the streaming bencode::Writer encoding matches the canonical
//     tree-based encoder for both reply forms;
//   * a reused reply and scratch answer like fresh ones;
//   * the steady-state announce_into + encode round trip performs zero
//     heap allocations once buffers are warm (counted by
//     counting_allocator.hpp).
#include <gtest/gtest.h>

#include <string>

#include "announce_support.hpp"
#include "bencode/bencode.hpp"
#include "bencode_tree.hpp"
#include "counting_allocator.hpp"
#include "crypto/sha1.hpp"
#include "net/compact.hpp"
#include "tracker/tracker.hpp"

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

Swarm make_golden_swarm(SimTime depart = 100000) {
  Swarm swarm(Sha1::hash("golden"), 64, 0);
  swarm.add_session(session(1, 0, depart, /*seeder=*/true));
  for (std::uint32_t i = 2; i <= 300; ++i) {
    swarm.add_session(session(i, 0, depart));
  }
  swarm.finalize();
  return swarm;
}

// Captured from the first tree-based implementation: the exact query
// string and the SHA-1 of the exact response body (parse_query_string,
// announce_into, encode_announce_reply_into: the HTTP listener's steps)
// for this fixed (tracker seed, swarm, client, time) tuple. If either
// expectation moves, the wire format changed — that is a protocol break,
// not a refactor.
TEST(AnnounceGolden, FixedSeedQueryBytesUnchanged) {
  Swarm swarm = make_golden_swarm();
  Tracker tracker(TrackerConfig{}, Rng(5));
  tracker.host_swarm(swarm);

  AnnounceRequest request;
  request.infohash = swarm.infohash();
  request.client = Endpoint{IpAddress(10, 0, 0, 8), 6881};
  request.numwant = 200;
  request.now = 10;

  const std::string query = to_query_string(request);
  EXPECT_EQ(query,
            "/announce?info_hash=%EC0%AD%C7%9EsI%00C%0EAt%CF%0A6%C2%D0%C4%22r"
            "&ip=10.0.0.8&port=6881&numwant=200&t=10");

  const std::string body = handle_get(tracker, query);
  EXPECT_EQ(body.size(), 1260u);
  EXPECT_EQ(Sha1::hash(body).hex(),
            "b9c7f4a9df9c5217b724ea360f5117ece797f841");
}

// The writer-based encoder must emit byte-for-byte what the canonical
// tree encoder (bencode::Value over std::map) produces.
TEST(AnnounceEncode, WriterMatchesTreeEncoderSuccess) {
  AnnounceReply reply;
  reply.ok = true;
  reply.interval = minutes(11);
  reply.complete = 2;
  reply.incomplete = 41;
  for (std::uint32_t i = 0; i < 37; ++i) {
    reply.peers.push_back(Endpoint{IpAddress(0x51000000 + i * 977),
                                   static_cast<std::uint16_t>(1024 + i)});
  }

  bencode::Dict dict;
  dict.emplace("interval", static_cast<std::int64_t>(reply.interval));
  dict.emplace("complete", static_cast<std::int64_t>(reply.complete));
  dict.emplace("incomplete", static_cast<std::int64_t>(reply.incomplete));
  std::string peers;
  for (const Endpoint& peer : reply.peers) append_compact_peer(peers, peer);
  dict.emplace("peers", peers);
  const std::string tree = bencode::encode(bencode::Value(std::move(dict)));

  EXPECT_EQ(encode_reply(reply), tree);
}

TEST(AnnounceEncode, WriterMatchesTreeEncoderFailure) {
  AnnounceReply reply;
  reply.ok = false;
  reply.failure_reason = "unregistered torrent";

  bencode::Dict dict;
  dict.emplace("failure reason", reply.failure_reason);
  const std::string tree = bencode::encode(bencode::Value(std::move(dict)));

  EXPECT_EQ(encode_reply(reply), tree);
}

TEST(AnnounceEncode, IntoReusesBufferAndClearsStaleBytes) {
  AnnounceReply big;
  big.ok = true;
  big.interval = 600;
  for (std::uint32_t i = 0; i < 120; ++i) {
    big.peers.push_back(Endpoint{IpAddress(i + 1), 6881});
  }
  AnnounceReply small;
  small.ok = false;
  small.failure_reason = "slow down";

  std::string buffer;
  encode_announce_reply_into(big, buffer);
  EXPECT_EQ(buffer, encode_reply(big));
  encode_announce_reply_into(small, buffer);  // shrinking reuse, no stale tail
  EXPECT_EQ(buffer, encode_reply(small));
}

TEST(AnnounceFastPath, ReusedReplyMatchesFreshReply) {
  Swarm swarm = make_golden_swarm();
  Tracker tracker(TrackerConfig{}, Rng(5));
  tracker.host_swarm(swarm);
  const SimDuration gap = tracker.enforced_gap() + kSecond;

  // Two trackers would draw distinct sample seeds, so compare a warm and
  // a fresh reply on one tracker at distinct query times: sampling is a
  // pure function of (seed, infohash, time, client), never of call order.
  Tracker::AnnounceScratch scratch;
  AnnounceReply reused;
  for (int i = 0; i < 5; ++i) {
    AnnounceRequest request;
    request.infohash = swarm.infohash();
    request.client = Endpoint{IpAddress(10, 1, 0, static_cast<std::uint8_t>(i)),
                              6881};
    request.numwant = 50;
    request.now = 100 + static_cast<SimTime>(i) * gap;
    tracker.announce_into(request, reused, scratch);

    AnnounceRequest again = request;
    again.client.ip = IpAddress(10, 2, 0, static_cast<std::uint8_t>(i));
    const AnnounceReply fresh = announce(tracker, again);
    ASSERT_TRUE(reused.ok);
    ASSERT_TRUE(fresh.ok);
    EXPECT_EQ(reused.complete, fresh.complete);
    EXPECT_EQ(reused.incomplete, fresh.incomplete);
    EXPECT_EQ(reused.interval, fresh.interval);
    EXPECT_EQ(reused.peers.size(), 50u);
  }

  // Failure forms fully overwrite the reused reply, too.
  AnnounceRequest unknown;
  unknown.infohash = Sha1::hash("not hosted");
  unknown.client = Endpoint{IpAddress(10, 3, 0, 1), 6881};
  unknown.now = days(1);
  tracker.announce_into(unknown, reused, scratch);
  EXPECT_FALSE(reused.ok);
  EXPECT_EQ(reused.failure_reason, "unregistered torrent");
  EXPECT_TRUE(reused.peers.empty());
  EXPECT_EQ(reused.complete, 0u);
  EXPECT_EQ(reused.incomplete, 0u);
}

TEST(AnnounceFastPath, SampledRepliesIdenticalToLegacySampling) {
  // The scratch-based sampler must consume the RNG identically and return
  // the same peers in the same order as the allocating overload.
  Swarm a = make_golden_swarm();
  Swarm b = make_golden_swarm();
  for (SimTime t : {SimTime{10}, SimTime{500}, SimTime{99999}}) {
    Rng rng_a(derive_seed(7, static_cast<std::uint64_t>(t)));
    Rng rng_b(derive_seed(7, static_cast<std::uint64_t>(t)));
    const auto legacy = a.sample_peers(t, 40, rng_a);
    std::vector<const PeerSession*> out;
    Swarm::SampleScratch scratch;
    b.sample_peers(t, 40, rng_b, out, scratch);
    ASSERT_EQ(legacy.size(), out.size());
    for (std::size_t i = 0; i < legacy.size(); ++i) {
      EXPECT_EQ(legacy[i]->endpoint, out[i]->endpoint) << "index " << i;
    }
    // And the generators must be in lockstep afterwards.
    EXPECT_EQ(rng_a.next(), rng_b.next());
  }
}

TEST(AnnounceFastPath, SteadyStateAnnounceIsAllocationFree) {
  Swarm swarm = make_golden_swarm(days(30));
  Tracker tracker(TrackerConfig{}, Rng(5));
  tracker.host_swarm(swarm);
  const SimDuration gap = tracker.enforced_gap() + kSecond;

  AnnounceRequest request;
  request.infohash = swarm.infohash();
  request.client = Endpoint{IpAddress(10, 0, 0, 9), 6881};
  request.numwant = 200;

  AnnounceReply reply;
  Tracker::AnnounceScratch scratch;
  std::string body;

  // Warm-up: grows reply.peers / scratch / encode buffer capacities, seats
  // the client's rate-limit entry and sweeps the swarm to full presence.
  SimTime now = hours(1);
  for (int i = 0; i < 50; ++i, now += gap) {
    request.now = now;
    tracker.announce_into(request, reply, scratch);
    encode_announce_reply_into(reply, body);
    ASSERT_TRUE(reply.ok);
  }

  const std::uint64_t before = g_alloc_count.load(std::memory_order_relaxed);
  for (int i = 0; i < 100; ++i, now += gap) {
    request.now = now;
    tracker.announce_into(request, reply, scratch);
    encode_announce_reply_into(reply, body);
  }
  const std::uint64_t after = g_alloc_count.load(std::memory_order_relaxed);

  EXPECT_EQ(after - before, 0u)
      << "steady-state announce_into + encode performed heap allocations";
  EXPECT_TRUE(reply.ok);
  EXPECT_EQ(reply.peers.size(), 200u);
}

}  // namespace
}  // namespace btpub
