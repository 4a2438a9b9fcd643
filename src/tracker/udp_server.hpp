// udp_server.hpp — the tracker's BEP 15 datagram endpoint: the
// connect-handshake state machine (connection ids, expiry) in front of the
// same announce engine the HTTP endpoint uses.
#pragma once

#include <string>
#include <string_view>
#include <unordered_map>

#include "tracker/tracker.hpp"
#include "tracker/udp.hpp"

namespace btpub {

/// Wraps a Tracker with the UDP protocol front end. Connection ids are
/// issued on connect and honoured for two minutes, per BEP 15.
class UdpTrackerEndpoint {
 public:
  explicit UdpTrackerEndpoint(Tracker& tracker, Rng rng)
      : tracker_(&tracker), rng_(rng) {}

  /// Handles one request datagram from `from` at simulated time `now`,
  /// writing the response datagram (connect / announce / scrape / error)
  /// into `out` (cleared first; capacity kept). Announces run through the
  /// tracker's announce_into fast path with endpoint-owned scratch —
  /// allocation-free once buffers have warmed up, except on connect (the
  /// connection table inserts) and on a reply whose peer list outgrows
  /// every previous one. This is the per-packet path the wire server
  /// (src/netio/) drives.
  void handle_into(std::string_view datagram, const Endpoint& from,
                   SimTime now, std::string& out);

  /// Per-action counters, bumped by handle_into. `announces` counts
  /// protocol-level announce datagrams; `announce_failures` the subset the
  /// tracker refused (rate limit, unknown torrent, ban).
  struct Stats {
    std::uint64_t connects = 0;
    std::uint64_t announces = 0;
    std::uint64_t announce_failures = 0;
    std::uint64_t scrapes = 0;
    std::uint64_t bad_connection_id = 0;
    std::uint64_t malformed = 0;
  };
  const Stats& stats() const noexcept { return stats_; }

  /// Connection ids still honoured right now; stale ids are pruned on
  /// connect, so this cannot grow beyond the live client population.
  std::size_t active_connections() const noexcept {
    return connections_.size();
  }

  static constexpr SimDuration kConnectionTtl = minutes(2);

  /// Encodes the BEP-15 announce response for `reply` straight into `out`:
  /// action, transaction id, interval, leechers, seeders, then 6 bytes per
  /// peer. The one encoder of that message.
  static void encode_announce_response_into(std::uint32_t transaction_id,
                                            const AnnounceReply& reply,
                                            std::string& out);

 private:
  struct Connection {
    SimTime issued = 0;
    std::uint32_t ip = 0;
  };

  void error_into(std::uint32_t transaction_id, std::string_view message,
                  std::string& out) const;
  /// A connection id is valid up to and INCLUDING kConnectionTtl after
  /// issue, and only from the address it was issued to.
  bool connection_valid(std::uint64_t id, const Endpoint& from,
                        SimTime now) const;
  void prune_expired(SimTime now);

  Tracker* tracker_;
  Rng rng_;
  std::unordered_map<std::uint64_t, Connection> connections_;
  Stats stats_;
  // Reused across handle_into calls (the zero-allocation contract).
  AnnounceReply reply_;
  Tracker::AnnounceScratch scratch_;
};

}  // namespace btpub
