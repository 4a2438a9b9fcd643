#include "dht/node.hpp"

#include <algorithm>

namespace btpub::dht {

// ---- tokens ---------------------------------------------------------------

std::string TokenJar::epoch_token(IpAddress ip, std::int64_t epoch) const {
  const std::uint64_t value = derive_seed(
      secret_, static_cast<std::uint64_t>(epoch), ip.value());
  std::string token(8, '\0');
  for (int i = 0; i < 8; ++i) {
    token[static_cast<std::size_t>(i)] =
        static_cast<char>(value >> (8 * (7 - i)));
  }
  return token;
}

std::string TokenJar::token_for(IpAddress ip, SimTime now) const {
  return epoch_token(ip, now / kTokenRotate);
}

bool TokenJar::valid(std::string_view token, IpAddress ip, SimTime now) const {
  const std::int64_t epoch = now / kTokenRotate;
  if (token == epoch_token(ip, epoch)) return true;
  return epoch > 0 && token == epoch_token(ip, epoch - 1);
}

// ---- peer store -----------------------------------------------------------

void PeerStore::announce(const Sha1Digest& info_hash, const Endpoint& peer,
                         SimTime now) {
  std::vector<Entry>& entries = store_[info_hash];
  const auto it = std::find_if(entries.begin(), entries.end(),
                               [&](const Entry& e) { return e.peer == peer; });
  if (it != entries.end()) {
    // Refresh moves the entry to the recent end, keeping the vector in
    // last-announce order — the reply window below depends on it.
    entries.erase(it);
  } else {
    ++stored_;
  }
  entries.push_back(Entry{peer, now});
}

void PeerStore::collect(const Sha1Digest& info_hash, SimTime now,
                        std::vector<Endpoint>& out) {
  out.clear();
  const auto it = store_.find(info_hash);
  if (it == store_.end()) return;
  std::vector<Entry>& entries = it->second;
  const std::size_t before = entries.size();
  std::erase_if(entries, [&](const Entry& entry) {
    return now - entry.last_announce > kPeerTtl;
  });
  stored_ -= before - entries.size();
  if (entries.empty()) {
    store_.erase(it);
    return;
  }
  // Reply with the *most recently announced* peers (entries are kept in
  // last-announce order): a fresh arrival is always visible to the next
  // lookup even when the swarm outgrows the reply cap, and peers that
  // stopped re-announcing fall out of the window before they expire.
  const std::size_t n = std::min(entries.size(), kMaxPeersPerReply);
  out.reserve(n);
  for (std::size_t i = entries.size() - n; i < entries.size(); ++i) {
    out.push_back(entries[i].peer);
  }
}

// ---- node -----------------------------------------------------------------

bool DhtNode::answer(const Query& query, const Endpoint& from, SimTime now,
                     Response& out) {
  // Every well-formed query is evidence the sender is alive; BEP 43
  // read-only senders are explicitly not added.
  if (!query.read_only) table_.observe(query.sender_id, from, now);

  out.transaction_id = query.transaction_id;
  out.sender_id = id();
  out.nodes.clear();
  out.peers.clear();
  out.token.clear();
  switch (query.method) {
    case Method::Ping:
      break;
    case Method::FindNode:
      table_.closest(query.target, RoutingTable::kBucketSize, out.nodes);
      break;
    case Method::GetPeers:
      store_.collect(query.info_hash, now, out.peers);
      // Nodes are returned alongside any values (the BEP 5 errata modern
      // clients implement): withholding them would terminate every lookup
      // at the first node holding peers, so announces would pile up there
      // instead of spreading to the k genuinely closest nodes.
      table_.closest(NodeId::from_digest(query.info_hash),
                     RoutingTable::kBucketSize, out.nodes);
      out.token = tokens_.token_for(from.ip, now);
      break;
    case Method::AnnouncePeer:
      if (!tokens_.valid(query.token, from.ip, now)) return false;
      // The announced peer is the sender's IP at the port it asked for —
      // BEP 5 stores the source address, which is what defeats the
      // spoofed-IP trick that works on trackers (the paper's fake
      // publishers): you cannot announce an address you don't hold.
      store_.announce(query.info_hash, Endpoint{from.ip, query.port}, now);
      break;
  }
  return true;
}

void DhtNode::handle_into(std::string_view datagram, const Endpoint& from,
                          SimTime now, std::string& out) {
  if (!Query::decode_into(datagram, query_)) {
    malformed_query_error(datagram).encode_into(out);
    return;
  }
  if (answer(query_, from, now, response_)) {
    response_.encode_into(out);
    return;
  }
  ErrorMessage error;
  error.transaction_id = query_.transaction_id;
  error.code = kErrorProtocol;
  error.message = "bad token";
  error.encode_into(out);
}

}  // namespace btpub::dht
