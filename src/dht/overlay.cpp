#include "dht/overlay.hpp"

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
}

void DhtOverlay::advance_to(SimTime t) {
  events_.run_until(t, [this](const OverlayEvent& event, SimTime at) {
    switch (event.kind) {
      case OverlayEvent::Kind::NodeJoin:
        add_node(event.endpoint, at);
        break;
      case OverlayEvent::Kind::NodeLeave:
        remove_node(event.endpoint);
        break;
      case OverlayEvent::Kind::Announce:
        announce_peer(event.infohash, event.endpoint, at);
        break;
    }
  });
}

void DhtOverlay::set_transaction_id(std::string& out) {
  const std::uint64_t n = next_transaction_++;
  out.assign(2, '\0');
  out[0] = static_cast<char>((n >> 8) & 0xff);
  out[1] = static_cast<char>(n & 0xff);
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

DhtNode* DhtOverlay::node_at(const Endpoint& endpoint) {
  const auto it = nodes_.find(endpoint);
  return it == nodes_.end() ? nullptr : it->second.get();
}

bool DhtOverlay::exchange(const Query& query, const Endpoint& to,
                          const Endpoint& from, SimTime now) {
  DhtNode* node = node_at(to);
  if (node == nullptr) return false;  // lost: timeout, nothing to answer
  ++datagrams_;
  // The overlay's own traffic is the simulated world: the node answers the
  // typed query. A measurement walk's query crosses the KRPC wire both ways.
  if (!query.read_only) return node->answer(query, from, now, reply_);
  query.encode_into(query_buf_);
  node->handle_into(query_buf_, from, now, reply_buf_);
  return Response::decode_into(reply_buf_, reply_) &&
         reply_.transaction_id == query.transaction_id;
}

// ---- iterative machinery --------------------------------------------------

template <typename OnReply>
void DhtOverlay::walk(Query& query, const Endpoint& from, SimTime now,
                      LookupStats* stats, OnReply&& on_reply) {
  while (true) {
    frontier_.select(RoutingTable::kBucketSize, kAlpha, round_);
    if (round_.empty()) break;
    if (stats != nullptr) ++stats->hops;
    for (const std::uint32_t index : round_) {
      frontier_.mark_queried(index);
      set_transaction_id(query.transaction_id);
      if (stats != nullptr) ++stats->messages;
      if (!exchange(query, frontier_[index].endpoint, from, now)) {
        if (stats != nullptr) ++stats->timeouts;  // lost, error or bogus reply
        frontier_.failed(index);
        continue;
      }
      frontier_.responded(index, reply_.sender_id);
      on_reply(index);
      for (const NodeInfo& node : reply_.nodes) {
        frontier_.add(node.endpoint, &node.id);
      }
    }
  }
}

void DhtOverlay::iterative_get_peers(const Sha1Digest& info_hash,
                                     const Endpoint& from, SimTime now,
                                     LookupStats* stats,
                                     std::span<const Endpoint> bootstrap,
                                     bool read_only,
                                     std::vector<Endpoint>* peers) {
  frontier_.reset(NodeId::from_digest(info_hash), from);
  for (const Endpoint& hint : bootstrap) frontier_.add(hint, nullptr);
  if (frontier_.size() == 0) frontier_.add(router_endpoint_, nullptr);
  peers_seen_.clear();

  Query query;
  query.method = Method::GetPeers;
  query.sender_id = NodeId::for_endpoint(seed_, from);
  query.info_hash = info_hash;
  query.read_only = read_only;

  walk(query, from, now, stats, [&](std::uint32_t index) {
    if (peers == nullptr) {
      // Announce walk: keep the token for announce_peer, skip the peers.
      if (tokens_.size() <= index) tokens_.resize(index + 1);
      tokens_[index].assign(reply_.token);
      return;
    }
    for (const Endpoint& peer : reply_.peers) {
      if (peers_seen_.insert(endpoint_key(peer))) peers->push_back(peer);
    }
  });

  if (peers == nullptr) {
    // The k closest responders (with their tokens) are the announce targets.
    frontier_.closest_responders(RoutingTable::kBucketSize, closest_);
  } else if (stats != nullptr) {
    stats->peers_found = peers->size();
  }
}

void DhtOverlay::iterative_find_node(DhtNode& origin, const NodeId& target,
                                     SimTime now) {
  frontier_.reset(target, origin.endpoint());
  // Seed with the origin's own table (refresh case) plus the router.
  origin.table().closest(target, RoutingTable::kBucketSize, seeds_);
  for (const NodeInfo& seed : seeds_) frontier_.add(seed.endpoint, &seed.id);
  frontier_.add(router_endpoint_, nullptr);

  Query query;
  query.method = Method::FindNode;
  query.sender_id = origin.id();
  query.target = target;

  walk(query, origin.endpoint(), now, nullptr, [&](std::uint32_t index) {
    // A response is direct evidence of liveness: verified contact.
    const Frontier::Candidate& c = frontier_[index];
    origin.table().observe(c.id, c.endpoint, now);
  });
}

// ---- client operations ----------------------------------------------------

std::vector<Endpoint> DhtOverlay::get_peers(const Sha1Digest& info_hash,
                                            const Endpoint& from, SimTime now,
                                            LookupStats* stats,
                                            std::span<const Endpoint> bootstrap,
                                            bool read_only) {
  std::vector<Endpoint> peers;
  iterative_get_peers(info_hash, from, now, stats, bootstrap, read_only,
                      &peers);
  return peers;
}

void DhtOverlay::announce_peer(const Sha1Digest& info_hash,
                               const Endpoint& peer, SimTime now,
                               LookupStats* stats) {
  iterative_get_peers(info_hash, peer, now, stats, {}, false, nullptr);
  Query announce;
  announce.method = Method::AnnouncePeer;
  announce.sender_id = NodeId::for_endpoint(seed_, peer);
  announce.info_hash = info_hash;
  announce.port = peer.port;
  for (const std::uint32_t index : closest_) {
    announce.token.assign(tokens_[index]);
    set_transaction_id(announce.transaction_id);
    if (stats != nullptr) ++stats->messages;
    exchange(announce, frontier_[index].endpoint, peer, now);
  }
}

}  // namespace btpub::dht
