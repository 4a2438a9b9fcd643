// node.hpp — one simulated Mainline DHT node: routing table + rotating
// announce tokens + peer store, behind the BEP 5 query handler.
//
// Tokens (BEP 5): a get_peers response carries an opaque token bound to
// the requester's IP; an announce_peer is only accepted with a token this
// node handed to that IP "recently". We rotate the token secret every
// kTokenRotate and accept the current and previous epoch, exactly the
// behaviour BEP 5 prescribes ("tokens up to ten minutes old are
// accepted" with a five-minute rotation).
//
// The peer store keeps announced (infohash -> peers) mappings with a TTL:
// a peer that stops re-announcing ages out after kPeerTtl. Storage order
// is last-announce order (a refresh moves the entry to the recent end),
// so replies are a pure function of the announce history — no hash-map
// iteration order leaks into any reply — and the reply window always
// covers the most recent announcers.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "dht/krpc.hpp"
#include "dht/routing_table.hpp"
#include "util/rng.hpp"

namespace btpub::dht {

/// Rotating announce-token dispenser, shared secret per node.
class TokenJar {
 public:
  static constexpr SimDuration kTokenRotate = minutes(5);

  explicit TokenJar(std::uint64_t secret) : secret_(secret) {}

  /// The 8-byte token currently handed to `ip`.
  std::string token_for(IpAddress ip, SimTime now) const;
  /// Accepts the current epoch's token and the previous one.
  bool valid(std::string_view token, IpAddress ip, SimTime now) const;

 private:
  std::string epoch_token(IpAddress ip, std::int64_t epoch) const;

  std::uint64_t secret_;
};

/// Per-node announced-peer storage with expiry.
class PeerStore {
 public:
  /// A stored peer vanishes this long after its last announce_peer.
  static constexpr SimDuration kPeerTtl = minutes(45);
  /// At most this many peers are returned per get_peers (BEP 5 responses
  /// must fit a UDP datagram).
  static constexpr std::size_t kMaxPeersPerReply = 50;

  /// Records (or refreshes) an announce.
  void announce(const Sha1Digest& info_hash, const Endpoint& peer, SimTime now);

  /// Appends the live peers for `info_hash` (the kMaxPeersPerReply most
  /// recently announced, oldest first) to `out`, which is cleared first.
  /// Expired entries of that infohash are pruned as a side effect, and an
  /// infohash left with none is dropped.
  void collect(const Sha1Digest& info_hash, SimTime now,
               std::vector<Endpoint>& out);

  std::size_t stored_peers() const noexcept { return stored_; }
  std::size_t stored_infohashes() const noexcept { return store_.size(); }

 private:
  struct Entry {
    Endpoint peer;
    SimTime last_announce = 0;
  };

  // Only ever probed by key, never iterated, so hash order cannot reach a
  // reply; per-infohash vectors preserve announce order for replies.
  std::unordered_map<Sha1Digest, std::vector<Entry>> store_;
  std::size_t stored_ = 0;
};

/// One DHT node. Single-threaded; time is carried in-band like everywhere
/// else in the simulator.
class DhtNode {
 public:
  DhtNode(NodeId id, Endpoint endpoint, std::uint64_t token_secret)
      : endpoint_(endpoint), table_(id), tokens_(token_secret) {}

  const NodeId& id() const noexcept { return table_.self(); }
  const Endpoint& endpoint() const noexcept { return endpoint_; }
  RoutingTable& table() noexcept { return table_; }
  const RoutingTable& table() const noexcept { return table_; }
  PeerStore& store() noexcept { return store_; }
  const TokenJar& tokens() const noexcept { return tokens_; }

  /// Answers one typed query from `from` at time `now` into `out` (every
  /// field rewritten, capacity kept): learns a non-read-only sender, then
  /// runs the BEP 5 method. False when an announce_peer carries a token
  /// this node did not hand to `from.ip` in the current or previous epoch;
  /// nothing is stored then and `out` is unspecified. The overlay's own
  /// traffic (joins, announce walks, announce_peer) calls this directly.
  bool answer(const Query& query, const Endpoint& from, SimTime now,
              Response& out);

  /// The wire form of answer(), which the crawler's read-only walks take:
  /// decodes one query datagram into a member Query, answers it into a
  /// member Response and encodes that into `out` (cleared first, capacity
  /// kept), so once warm a query costs no allocation. A datagram that is
  /// not a valid query gets malformed_query_error()'s reply, and a bad
  /// announce token a 203 "bad token" error.
  void handle_into(std::string_view datagram, const Endpoint& from,
                   SimTime now, std::string& out);

 private:
  Endpoint endpoint_;
  RoutingTable table_;
  TokenJar tokens_;
  PeerStore store_;
  Query query_;
  Response response_;
};

}  // namespace btpub::dht
