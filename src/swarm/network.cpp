#include "swarm/network.hpp"

#include <stdexcept>

#include "torrent/wire.hpp"

namespace btpub {

void SwarmNetwork::register_swarm(Swarm& swarm) {
  if (!swarm.finalized()) {
    throw std::logic_error("SwarmNetwork: swarm must be finalized");
  }
  swarms_.insert(swarm.infohash(), &swarm);
}

Swarm* SwarmNetwork::find(const Sha1Digest& infohash) {
  return swarms_.find(infohash);
}

std::optional<SwarmNetwork::ProbeResult> SwarmNetwork::probe(
    const Sha1Digest& infohash, const Endpoint& endpoint, SimTime t) {
  Swarm* swarm = find(infohash);
  if (swarm == nullptr) return std::nullopt;
  const PeerSession* session = swarm->find_peer(endpoint, t);
  if (session == nullptr || session->nat) return std::nullopt;

  Handshake hs;
  hs.infohash = infohash;
  hs.peer_id = Handshake::make_peer_id(
      (static_cast<std::uint64_t>(endpoint.ip.value()) << 16) | endpoint.port);
  ProbeResult result;
  result.handshake = hs.encode();
  result.bitfield = encode_bitfield_message(swarm->bitfield_at(*session, t));
  return result;
}

}  // namespace btpub
