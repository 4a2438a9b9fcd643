// network.hpp — the crawler's eye view of the peer network: direct
// peer-wire probes. Given an endpoint learnt from the tracker, the crawler
// attempts a TCP-style connection; NATed or departed peers are unreachable,
// reachable peers answer with a handshake followed by a bitfield message —
// the bytes the paper's apparatus used to single out the initial seeder.
#pragma once

#include <optional>
#include <string>

#include "crypto/sha1.hpp"
#include "swarm/swarm.hpp"
#include "swarm/swarm_map.hpp"

namespace btpub {

/// Registry of live swarms addressable by infohash; simulates the peer-wire
/// reachability side of the network.
class SwarmNetwork {
 public:
  /// Registers a finalized swarm. The swarm must outlive the network.
  void register_swarm(Swarm& swarm);

  Swarm* find(const Sha1Digest& infohash);
  std::size_t swarm_count() const noexcept { return swarms_.size(); }

  /// Result of a peer-wire probe.
  struct ProbeResult {
    std::string handshake;  // 68 raw bytes
    std::string bitfield;   // length-prefixed bitfield message
  };

  /// Connects to `endpoint` for `infohash` at time t and performs the
  /// handshake + bitfield exchange. nullopt when the peer is
  /// behind NAT, not present, or the swarm is unknown.
  std::optional<ProbeResult> probe(const Sha1Digest& infohash,
                                   const Endpoint& endpoint, SimTime t);

 private:
  ShardedSwarmMap<Swarm> swarms_;
};

}  // namespace btpub
