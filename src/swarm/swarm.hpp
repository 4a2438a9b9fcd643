// swarm.hpp — one BitTorrent swarm as a set of peer sessions over
// simulated time.
//
// Peer activity is represented as time intervals rather than discrete
// events: a session is [arrive, depart) with a completion instant at which
// the peer flips from leecher to seeder. The tracker answers announce
// queries by sweeping an event list forward in time, which makes crawling
// thousands of swarms over weeks of simulated time cheap (O(events) for the
// sweep plus O(k) per sampled reply).
#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "crypto/sha1.hpp"
#include "net/ip.hpp"
#include "torrent/bitfield.hpp"
#include "util/arena.hpp"
#include "util/rng.hpp"
#include "util/time.hpp"

namespace btpub {

/// One peer's participation in one swarm.
struct PeerSession {
  Endpoint endpoint;
  SimTime arrive = 0;
  SimTime depart = 0;
  /// Instant the peer holds all pieces; values >= depart mean it never
  /// completed within the session.
  SimTime complete_at = std::numeric_limits<SimTime>::max();
  bool nat = false;           // unreachable for direct peer-wire probes
  bool is_publisher = false;  // ground-truth marker (not visible on the wire)
  /// Address announced to the tracker but not actually held (a fake
  /// publisher's decoy injection). Spoofed peers are unreachable like NAT
  /// ones and can never appear in the DHT, whose nodes store the announce
  /// datagram's *source* address.
  bool spoofed = false;

  bool seeder_at(SimTime t) const noexcept { return t >= complete_at; }
  bool present_at(SimTime t) const noexcept { return t >= arrive && t < depart; }
};

/// Seeder/leecher population at an instant.
struct SwarmCounts {
  std::uint32_t seeders = 0;
  std::uint32_t leechers = 0;
  std::uint32_t total() const noexcept { return seeders + leechers; }
};

/// A swarm: finalized set of sessions + a forward time sweep.
class Swarm {
 public:
  Swarm() = default;
  Swarm(Sha1Digest infohash, std::size_t n_pieces, SimTime birth);

  const Sha1Digest& infohash() const noexcept { return infohash_; }
  SimTime birth() const noexcept { return birth_; }
  std::size_t piece_count() const noexcept { return n_pieces_; }

  /// Adds a session; only valid before finalize().
  void add_session(PeerSession session);

  /// Pre-sizes the staging buffer; the generator knows its arrival count
  /// up front, so session ingestion is a single allocation.
  void reserve_sessions(std::size_t n) { staging_.reserve(n); }

  /// Sorts the event list and compacts sessions, sweep events and the
  /// endpoint index into the swarm's arena; must be called once before any
  /// query. After finalize the growth staging buffer is released.
  void finalize();
  bool finalized() const noexcept { return finalized_; }

  std::size_t session_count() const noexcept { return sessions().size(); }
  std::span<const PeerSession> sessions() const noexcept {
    return finalized_ ? sessions_ : std::span<const PeerSession>(staging_);
  }

  /// Build-side allocation footprint (bench/observability).
  const Arena& arena() const noexcept { return arena_; }

  /// Population counts at time t. Queries must be issued in non-decreasing
  /// t; a backwards jump rewinds by rebuilding the sweep (slow path).
  SwarmCounts counts_at(SimTime t);

  /// Reusable scratch for sample_peers: holding onto one instance across
  /// queries makes steady-state sampling allocation-free (the announce
  /// fast path threads one through Tracker::announce_into).
  struct SampleScratch {
    std::vector<std::uint32_t> chosen;  // Floyd membership, |chosen| <= k
  };

  /// Uniform sample (without replacement) of at most k present sessions.
  std::vector<const PeerSession*> sample_peers(SimTime t, std::size_t k, Rng& rng);

  /// Same draw (identical RNG consumption and output order — byte-identity
  /// of announce replies depends on it), but writes into caller-owned
  /// storage. `out` is cleared first; both vectors keep their capacity.
  void sample_peers(SimTime t, std::size_t k, Rng& rng,
                    std::vector<const PeerSession*>& out, SampleScratch& scratch);

  /// The session with this endpoint present at t, if any.
  const PeerSession* find_peer(const Endpoint& endpoint, SimTime t);

  /// Download progress in [0,1]: linear from arrive to complete_at; peers
  /// that never complete plateau below 1.
  double progress_at(const PeerSession& session, SimTime t) const;

  /// The peer's piece bitfield at t under the linear-progress model.
  Bitfield bitfield_at(const PeerSession& session, SimTime t) const;

  /// Time of the last departure (swarm death); birth when empty.
  SimTime last_departure() const noexcept { return last_departure_; }

  /// Ground truth: number of distinct downloader IPs (excludes publisher
  /// and spoofed sessions — neither is a real downloader). Counted once at
  /// finalize(), off the endpoint index; throws std::logic_error before.
  std::size_t distinct_downloader_ips() const;

 private:
  enum class EventKind : std::uint8_t { Arrive = 0, Complete = 1, Depart = 2 };
  struct Event {
    SimTime at;
    EventKind kind;
    std::uint32_t session;
  };

  void rebuild_sweep();
  void advance_to(SimTime t);

  Sha1Digest infohash_{};
  std::size_t n_pieces_ = 1;
  SimTime birth_ = 0;

  /// Pre-finalize growth buffer; finalize() moves it into the arena.
  std::vector<PeerSession> staging_;

  /// All post-finalize per-session storage lives here: one arena, a couple
  /// of blocks, freed as a unit — instead of a sessions vector, an events
  /// vector and (worst of all) an unordered_map node per endpoint.
  Arena arena_;
  std::span<const PeerSession> sessions_;
  std::span<const Event> events_;
  /// Session indices sorted by (endpoint, insertion index): find_peer is a
  /// binary search over this flat index, replacing the per-endpoint hash
  /// map. Ties keep insertion order, so lookup semantics are unchanged.
  std::span<const std::uint32_t> endpoint_index_;

  bool finalized_ = false;
  SimTime last_departure_ = 0;
  std::size_t distinct_downloader_ips_ = 0;

  // Sweep state.
  std::size_t next_event_ = 0;
  SimTime sweep_time_ = std::numeric_limits<SimTime>::min();
  std::vector<std::uint32_t> present_;               // session indices
  std::vector<std::uint32_t> position_;              // session -> index in present_
  static constexpr std::uint32_t kAbsent = ~std::uint32_t{0};
  SwarmCounts counts_{};
};

}  // namespace btpub
