// overlay.hpp — the simulated Mainline DHT overlay network.
//
// No sockets: a query "sent" to an endpoint is answered synchronously by
// the addressed node at the carried simulated time, mirroring how the
// tracker endpoint answers announce datagrams. Reachability is modelled:
// queries to endpoints that are not (or no longer) overlay nodes are lost,
// which the RPC layer reports as a timeout — iterative lookups route
// around departed nodes exactly as a real client would.
//
// Two halves, one exchange (DESIGN §1): the overlay's own traffic — joins'
// find_node walks, announce walks' get_peers and the announce_peer that
// follows — is the simulated world, so the node answers the typed Query
// (DhtNode::answer) and no byte is written. A measurement vantage's BEP 43
// read-only get_peers is the apparatus, so it crosses the KRPC wire: the
// query is encoded, the node decodes it, answers and encodes the reply
// (DhtNode::handle_into), and the overlay decodes that and checks the
// transaction-id echo. Both paths answer from the same node state, so
// which one a query takes changes no reply.
//
// Time is driven two ways, both deterministic:
//   * an internal EventQueue (event_queue.hpp) carries the scheduled life
//     of the overlay (node joins at session arrival, periodic
//     announce_peer refreshes, departures) — advance_to(t) replays it up
//     to t;
//   * client operations (lookups, announces, the crawler's walks) run
//     synchronously at an explicit `now`, which must be >= the last
//     advance (one monotone sweep, the same discipline Swarm::counts_at
//     imposes).
//
// Determinism: node ids derive from (seed, endpoint); transaction ids come
// from a single sequential counter; the node registry is a hash map that
// is only ever probed, never iterated, so its order cannot reach a
// reply; lookups break distance ties on the id bytes. Two overlays
// built from the same seed and fed the same schedule answer every query
// byte-identically.
//
// A wire exchange runs through the overlay's own query and reply buffers
// and one reused decoded Response, which a typed answer fills directly,
// and each node decodes and encodes through its own reused Query/Response:
// once warm, an exchange costs no allocation. A query to an endpoint that
// is no node is not even answered. Both walks share one sorted Frontier
// (frontier.hpp) and the overlay's endpoint sets, so a round costs its new
// candidates and a warm lookup allocates nothing but its result.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "dht/event_queue.hpp"
#include "dht/frontier.hpp"
#include "dht/node.hpp"

namespace btpub::dht {

/// Telemetry of one iterative lookup (hops, messages, peers found).
struct LookupStats {
  /// Query rounds until convergence (the O(log n) quantity).
  std::uint32_t hops = 0;
  /// Queries sent, including ones that timed out.
  std::uint32_t messages = 0;
  /// Queries that went unanswered (departed/NATed endpoints).
  std::uint32_t timeouts = 0;
  /// Distinct peers returned by get_peers values.
  std::size_t peers_found = 0;
};

class DhtOverlay {
 public:
  /// Lookup parallelism (the Kademlia alpha).
  static constexpr std::size_t kAlpha = 3;

  explicit DhtOverlay(std::uint64_t seed);

  /// The always-on bootstrap router (a la router.bittorrent.com). It
  /// participates in routing but never stores or announces peers.
  const Endpoint& router() const noexcept { return router_endpoint_; }

  // ---- membership ----------------------------------------------------------

  /// Creates a node at `endpoint` (id derived from the overlay seed) and
  /// joins it through the router: an iterative find_node towards its own
  /// id that fills its routing table and advertises it to the overlay.
  /// Adding an existing endpoint refreshes (re-joins) it. Returns the id.
  NodeId add_node(const Endpoint& endpoint, SimTime now);

  /// Departs a node: it stops answering and queries to it time out. Other
  /// tables keep its contact until a newcomer evicts it as stale
  /// (RoutingTable::observe).
  void remove_node(const Endpoint& endpoint);

  DhtNode* node_at(const Endpoint& endpoint);
  std::size_t node_count() const noexcept { return nodes_.size(); }

  // ---- scheduled life -------------------------------------------------------

  /// The overlay's schedule: NodeJoin/NodeLeave/Announce events scheduled
  /// here drive add_node/remove_node/announce_peer when advance_to reaches
  /// them, and periodic announces re-arm lazily (one pending cursor per
  /// session).
  EventQueue& events() noexcept { return events_; }
  /// Replays scheduled events with timestamp <= t. Client operations at
  /// time `now` must be preceded by advance_to(now).
  void advance_to(SimTime t);

  // ---- client operations ----------------------------------------------------

  /// Iterative get_peers from vantage `from` (need not be a node; pass
  /// read_only=true for measurement vantages). Returns the distinct peers
  /// found, in discovery order. `bootstrap` endpoints seed the shortlist;
  /// when empty the router is used.
  std::vector<Endpoint> get_peers(const Sha1Digest& info_hash,
                                  const Endpoint& from, SimTime now,
                                  LookupStats* stats = nullptr,
                                  std::span<const Endpoint> bootstrap = {},
                                  bool read_only = false);

  /// Full BEP 5 announce from a node: iterative get_peers to locate the k
  /// closest nodes (collecting their tokens), then announce_peer to each.
  /// The peer's address is its own endpoint; `port` defaults to it too.
  /// The walk only needs the responders and their tokens, so it collects
  /// no peers: `stats->peers_found` stays 0. Every exchange of it is typed
  /// (no read-only flag), so no reply's `values` is encoded or decoded.
  void announce_peer(const Sha1Digest& info_hash, const Endpoint& peer,
                     SimTime now, LookupStats* stats = nullptr);

  /// Total queries delivered to a node, typed or on the wire (diagnostic).
  std::uint64_t datagrams() const noexcept { return datagrams_; }

 private:
  /// Iterative get_peers. With `peers` set, the distinct peers of every
  /// reply's `values` are appended to it; with `peers` null (an announce
  /// walk) none are, and the tokens of the k closest responders are left
  /// in closest_/tokens_ instead.
  void iterative_get_peers(const Sha1Digest& info_hash, const Endpoint& from,
                           SimTime now, LookupStats* stats,
                           std::span<const Endpoint> bootstrap, bool read_only,
                           std::vector<Endpoint>* peers);
  /// Iterative find_node used by joins; routing tables fill as a side
  /// effect of the traffic.
  void iterative_find_node(DhtNode& from, const NodeId& target, SimTime now);
  /// The round loop both walks share: queries frontier_'s picks until it
  /// converges, calling `on_reply(index)` for each answer before the
  /// reply's nodes join the frontier.
  template <typename OnReply>
  void walk(Query& query, const Endpoint& from, SimTime now,
            LookupStats* stats, OnReply&& on_reply);
  /// Writes the next transaction id (a 2-byte sequence number) to `out`.
  void set_transaction_id(std::string& out);
  /// Delivers `query` to `to` and leaves the answer in reply_; false on a
  /// timeout (unknown endpoint, for which nothing is encoded), a rejected
  /// announce token, or a wire reply that is an error or fails to echo the
  /// transaction id. A BEP 43 read-only query crosses the KRPC wire
  /// (encode, DhtNode::handle_into, decode); any other is answered typed
  /// by DhtNode::answer.
  bool exchange(const Query& query, const Endpoint& to, const Endpoint& from,
                SimTime now);

  std::uint64_t seed_;
  EventQueue events_;
  Endpoint router_endpoint_;
  std::unordered_map<Endpoint, std::unique_ptr<DhtNode>> nodes_;
  std::uint64_t next_transaction_ = 0;
  std::uint64_t datagrams_ = 0;
  std::string query_buf_;
  std::string reply_buf_;
  Response reply_;
  // Walk scratch, reused by every lookup of this overlay.
  Frontier frontier_;
  KeySet peers_seen_;
  std::vector<std::uint32_t> round_;
  std::vector<std::uint32_t> closest_;
  /// Per candidate index: the token it answered an announce walk with.
  std::vector<std::string> tokens_;
  std::vector<NodeInfo> seeds_;
};

}  // namespace btpub::dht
