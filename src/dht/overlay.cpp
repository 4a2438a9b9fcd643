#include "dht/overlay.hpp"

#include <algorithm>
#include <unordered_set>

namespace btpub::dht {
namespace {

/// The router lives beside the crawler vantages in measurement space,
/// outside the simulated Internet's GeoIP blocks.
constexpr Endpoint kRouterEndpoint{IpAddress(10, 99, 0, 1), 6881};

}  // namespace

DhtOverlay::DhtOverlay(std::uint64_t seed)
    : seed_(seed), router_endpoint_(kRouterEndpoint) {
  auto router = std::make_unique<DhtNode>(
      NodeId::for_endpoint(seed_, router_endpoint_), router_endpoint_,
      derive_seed(seed_, 0xB007));
  nodes_.emplace(router_endpoint_, std::move(router));
  // The one closure of the scheduled overlay life: every join, departure
  // and (lazily re-armed) periodic announce arrives as a POD TypedEvent.
  events_.set_typed_handler([this](const TypedEvent& event, SimTime at) {
    switch (event.kind) {
      case TypedEvent::Kind::NodeJoin:
        add_node(event.endpoint, at);
        break;
      case TypedEvent::Kind::NodeLeave:
        remove_node(event.endpoint);
        break;
      case TypedEvent::Kind::Announce:
        announce_peer(event.infohash, event.endpoint, at);
        break;
    }
  });
}

std::string DhtOverlay::next_transaction_id() {
  const std::uint64_t n = next_transaction_++;
  std::string id(2, '\0');
  id[0] = static_cast<char>((n >> 8) & 0xff);
  id[1] = static_cast<char>(n & 0xff);
  return id;
}

NodeId DhtOverlay::add_node(const Endpoint& endpoint, SimTime now) {
  const NodeId id = NodeId::for_endpoint(seed_, endpoint);
  auto it = nodes_.find(endpoint);
  if (it == nodes_.end()) {
    it = nodes_
             .emplace(endpoint,
                      std::make_unique<DhtNode>(
                          id, endpoint,
                          derive_seed(seed_, id.bytes[0], id.bytes[19],
                                      endpoint.ip.value())))
             .first;
  }
  // Join (or refresh): walk towards the own id through the router. The
  // traffic simultaneously fills this node's table and advertises it to
  // every node on the path.
  iterative_find_node(*it->second, id, now);
  return id;
}

void DhtOverlay::remove_node(const Endpoint& endpoint) {
  if (endpoint == router_endpoint_) return;  // the router never departs
  nodes_.erase(endpoint);
}

bool DhtOverlay::is_node(const Endpoint& endpoint) const {
  return nodes_.contains(endpoint);
}

DhtNode* DhtOverlay::node_at(const Endpoint& endpoint) {
  const auto it = nodes_.find(endpoint);
  return it == nodes_.end() ? nullptr : it->second.get();
}

bool DhtOverlay::deliver(const Endpoint& to, const Endpoint& from,
                         SimTime now) {
  const auto it = nodes_.find(to);
  if (it == nodes_.end()) return false;  // lost: timeout
  ++datagrams_;
  it->second->handle_into(query_buf_, from, now, reply_buf_);
  return true;
}

bool DhtOverlay::exchange(const Query& query, const Endpoint& to,
                          const Endpoint& from, SimTime now) {
  query.encode_into(query_buf_);
  return deliver(to, from, now) && Response::decode_into(reply_buf_, reply_) &&
         reply_.transaction_id == query.transaction_id;
}

// ---- iterative machinery --------------------------------------------------

DhtOverlay::LookupResult DhtOverlay::iterative_get_peers(
    const Sha1Digest& info_hash, const Endpoint& from, SimTime now,
    LookupStats* stats, std::span<const Endpoint> bootstrap, bool read_only) {
  const NodeId target = NodeId::from_digest(info_hash);
  LookupResult result;
  std::vector<Candidate> candidates;
  std::unordered_set<Endpoint> known_endpoints;
  std::unordered_set<Endpoint> known_peers;

  auto add_candidate = [&](const Endpoint& endpoint, const NodeId* id) {
    if (endpoint == from) return;
    if (!known_endpoints.insert(endpoint).second) return;
    Candidate c;
    c.endpoint = endpoint;
    if (id != nullptr) {
      c.id = *id;
      c.id_known = true;
    }
    candidates.push_back(c);
  };
  for (const Endpoint& hint : bootstrap) add_candidate(hint, nullptr);
  if (candidates.empty()) add_candidate(router_endpoint_, nullptr);

  Query query;
  query.method = Method::GetPeers;
  query.sender_id = NodeId::for_endpoint(seed_, from);
  query.info_hash = info_hash;
  query.read_only = read_only;

  std::vector<std::size_t> round;  // candidate indices queried this round
  while (true) {
    // Query targets: every unqueried id-less bootstrap entry, then the
    // unqueried candidates among the k closest known ones.
    round.clear();
    std::vector<std::size_t> ranked;
    for (std::size_t i = 0; i < candidates.size(); ++i) {
      const Candidate& c = candidates[i];
      if (!c.queried && !c.id_known) round.push_back(i);
      // Dead nodes (queried, no response) are excluded from the ranked
      // window so they cannot clog the k closest slots and stall the walk.
      if (c.id_known && (!c.queried || c.responded)) ranked.push_back(i);
    }
    std::sort(ranked.begin(), ranked.end(), [&](std::size_t a, std::size_t b) {
      return closer(candidates[a].id, candidates[b].id, target);
    });
    for (std::size_t r = 0;
         r < ranked.size() && r < RoutingTable::kBucketSize &&
         round.size() < kAlpha;
         ++r) {
      if (!candidates[ranked[r]].queried) round.push_back(ranked[r]);
    }
    if (round.size() > kAlpha) round.resize(kAlpha);
    if (round.empty()) break;

    if (stats != nullptr) ++stats->hops;
    for (const std::size_t index : round) {
      candidates[index].queried = true;
      query.transaction_id = next_transaction_id();
      if (stats != nullptr) ++stats->messages;
      if (!exchange(query, candidates[index].endpoint, from, now)) {
        if (stats != nullptr) ++stats->timeouts;  // lost, error or bogus reply
        continue;
      }
      Candidate& c = candidates[index];
      c.responded = true;
      c.id = reply_.sender_id;
      c.id_known = true;
      result.closest.push_back({NodeInfo{c.id, c.endpoint}, reply_.token});
      for (const NodeInfo& node : reply_.nodes) {
        add_candidate(node.endpoint, &node.id);
      }
      for (const Endpoint& peer : reply_.peers) {
        if (known_peers.insert(peer).second) result.peers.push_back(peer);
      }
    }
  }

  // The k closest responders (with their tokens) are the announce targets.
  std::sort(result.closest.begin(), result.closest.end(),
            [&](const auto& a, const auto& b) {
              return closer(a.first.id, b.first.id, target);
            });
  if (result.closest.size() > RoutingTable::kBucketSize) {
    result.closest.resize(RoutingTable::kBucketSize);
  }
  if (stats != nullptr) stats->peers_found = result.peers.size();
  return result;
}

void DhtOverlay::iterative_find_node(DhtNode& origin, const NodeId& target,
                                     SimTime now) {
  std::vector<Candidate> candidates;
  std::unordered_set<Endpoint> known_endpoints;
  auto add_candidate = [&](const Endpoint& endpoint, const NodeId* id) {
    if (endpoint == origin.endpoint()) return;
    if (!known_endpoints.insert(endpoint).second) return;
    Candidate c;
    c.endpoint = endpoint;
    if (id != nullptr) {
      c.id = *id;
      c.id_known = true;
    }
    candidates.push_back(c);
  };
  // Seed with the origin's own table (refresh case) plus the router.
  std::vector<Contact> seeds;
  origin.table().closest(target, RoutingTable::kBucketSize, seeds);
  for (const Contact& contact : seeds) add_candidate(contact.endpoint, &contact.id);
  add_candidate(router_endpoint_, nullptr);

  Query query;
  query.method = Method::FindNode;
  query.sender_id = origin.id();
  query.target = target;

  std::vector<std::size_t> round;
  while (true) {
    round.clear();
    std::vector<std::size_t> ranked;
    for (std::size_t i = 0; i < candidates.size(); ++i) {
      const Candidate& c = candidates[i];
      if (!c.queried && !c.id_known) round.push_back(i);
      if (c.id_known && (!c.queried || c.responded)) ranked.push_back(i);
    }
    std::sort(ranked.begin(), ranked.end(), [&](std::size_t a, std::size_t b) {
      return closer(candidates[a].id, candidates[b].id, target);
    });
    for (std::size_t r = 0;
         r < ranked.size() && r < RoutingTable::kBucketSize &&
         round.size() < kAlpha;
         ++r) {
      if (!candidates[ranked[r]].queried) round.push_back(ranked[r]);
    }
    if (round.size() > kAlpha) round.resize(kAlpha);
    if (round.empty()) break;

    for (const std::size_t index : round) {
      candidates[index].queried = true;
      query.transaction_id = next_transaction_id();
      if (!exchange(query, candidates[index].endpoint, origin.endpoint(), now)) {
        continue;
      }
      Candidate& c = candidates[index];
      c.responded = true;
      c.id = reply_.sender_id;
      c.id_known = true;
      // A response is direct evidence of liveness: verified contact.
      origin.table().observe(c.id, c.endpoint, now);
      for (const NodeInfo& node : reply_.nodes) {
        add_candidate(node.endpoint, &node.id);
      }
    }
  }
}

// ---- client operations ----------------------------------------------------

std::vector<Endpoint> DhtOverlay::get_peers(const Sha1Digest& info_hash,
                                            const Endpoint& from, SimTime now,
                                            LookupStats* stats,
                                            std::span<const Endpoint> bootstrap,
                                            bool read_only) {
  return iterative_get_peers(info_hash, from, now, stats, bootstrap, read_only)
      .peers;
}

void DhtOverlay::announce_peer(const Sha1Digest& info_hash,
                               const Endpoint& peer, SimTime now,
                               LookupStats* stats) {
  const LookupResult lookup =
      iterative_get_peers(info_hash, peer, now, stats, {}, false);
  Query announce;
  announce.method = Method::AnnouncePeer;
  announce.sender_id = NodeId::for_endpoint(seed_, peer);
  announce.info_hash = info_hash;
  announce.port = peer.port;
  for (const auto& [node, token] : lookup.closest) {
    announce.token = token;
    announce.transaction_id = next_transaction_id();
    if (stats != nullptr) ++stats->messages;
    announce.encode_into(query_buf_);
    deliver(node.endpoint, peer, now);
  }
}

}  // namespace btpub::dht
