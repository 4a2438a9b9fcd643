// tracker.hpp — the BitTorrent tracker (OpenBitTorrent substitute).
//
// Serves announce queries over swarms hosted as interval schedules: a query
// at time t returns the seeder/leecher counts and a uniform random subset
// of at most `max_numwant` present peers, bencoded with compact peer lists,
// exactly the view the paper's crawler aggregates. The tracker enforces the
// query-rate limit the authors had to respect (one query per 10–15 minutes
// per client and torrent) and blacklists abusive clients.
//
// Threading contract: one thread uses a Tracker. The measurement crawl is
// serial, and each `btpub serve` shard owns its own replica (DESIGN §4.7).
// host_swarm() is build-time only — the swarm registry is read-only once
// announces begin. Peer sampling is stateless: each reply draws from a
// generator keyed on (sample seed, infohash, query time, client IP), never
// from a shared stream, so the sampled subset is a pure function of the
// query, independent of the order in which swarms are queried.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>

#include "swarm/swarm.hpp"
#include "swarm/swarm_map.hpp"
#include "tracker/announce.hpp"
#include "util/rng.hpp"

namespace btpub {

/// The announce URL advertised in metainfo files.
inline constexpr std::string_view kTrackerAnnounceUrl =
    "http://tracker.btpub.example/announce";
/// Number of rate violations before a client IP is blacklisted.
inline constexpr std::uint32_t kBlacklistAfter = 50;

struct TrackerConfig {
  /// Hard cap on peers per reply (the paper: at most 200).
  static constexpr std::size_t max_numwant = 200;
  /// Minimum gap between two queries from one client for one torrent.
  /// The actual enforced gap is drawn per tracker in [min, max] to model
  /// load-dependent throttling.
  SimDuration min_query_gap = minutes(10);
  SimDuration max_query_gap = minutes(15);
};

/// The tracker; see the threading contract above.
class Tracker {
 public:
  explicit Tracker(TrackerConfig config, Rng rng);

  const TrackerConfig& config() const noexcept { return config_; }

  /// Hosts a finalized swarm; the swarm must outlive the tracker.
  /// Build-time only.
  void host_swarm(Swarm& swarm);

  /// Reusable per-caller scratch for the announce fast path. The crawler
  /// owns one; the tracker never stores state in it beyond the
  /// duration of one announce_into call. See DESIGN.md, "Announce fast
  /// path", for the ownership rules.
  struct AnnounceScratch {
    std::vector<const PeerSession*> sampled;
    Swarm::SampleScratch sample;
  };

  /// Full protocol round trip: takes the bencoded-over-HTTP GET query
  /// string, returns the bencoded response body. Thin shim over
  /// announce_into kept for protocol-level tests and wire-format callers.
  std::string handle_get(std::string_view query_string);

  /// Struct-level announce (used by simulator-internal callers and by
  /// handle_get). Applies rate limiting and blacklisting.
  AnnounceReply announce(const AnnounceRequest& request);

  /// The steady-state fast path: identical semantics to announce(), but
  /// writes into a caller-owned reply (whose peers vector is cleared, not
  /// shrunk) and samples through caller-owned scratch — allocation-free
  /// once reply/scratch capacities have warmed up. All reply fields are
  /// overwritten; nothing from a previous query leaks through.
  void announce_into(const AnnounceRequest& request, AnnounceReply& reply,
                     AnnounceScratch& scratch);

  /// Scrape counters for one swarm at time `now`; nullopt when the
  /// infohash is not hosted. `downloaded` follows the convention the
  /// bencoded scrape established: total sessions ever seen by the swarm.
  struct ScrapeCounts {
    std::uint32_t complete = 0;    // seeders
    std::uint32_t downloaded = 0;  // snatches
    std::uint32_t incomplete = 0;  // leechers
  };
  std::optional<ScrapeCounts> scrape_counts(const Sha1Digest& infohash,
                                            SimTime now);

  /// Scrape: bencoded per-infohash {complete, incomplete} counters at
  /// time `now`. Shares its counters with the UDP scrape action via
  /// scrape_counts().
  std::string scrape(const Sha1Digest& infohash, SimTime now);

  bool is_blacklisted(IpAddress client) const;

  /// Clears per-client rate-limit/blacklist state and re-keys the
  /// stateless peer-sampling draw; hosted swarms, stats and the enforced
  /// gap are kept. Lets one tracker serve repeated identical crawls
  /// deterministically.
  void reset_state(std::uint64_t sample_seed);

  struct Stats {
    std::uint64_t queries = 0;
    std::uint64_t rejected_rate = 0;
    std::uint64_t rejected_blacklist = 0;
    std::uint64_t rejected_unknown = 0;
  };
  Stats stats() const noexcept { return stats_; }

  /// The gap this tracker actually enforces (drawn once at construction).
  SimDuration enforced_gap() const noexcept { return enforced_gap_; }

 private:
  struct ClientKey {
    std::uint32_t ip;
    Sha1Digest infohash;
    bool operator==(const ClientKey&) const = default;
  };
  struct ClientKeyHash {
    std::size_t operator()(const ClientKey& k) const noexcept {
      return std::hash<Sha1Digest>{}(k.infohash) ^
             (static_cast<std::size_t>(k.ip) * 0x9E3779B97F4A7C15ULL);
    }
  };

  TrackerConfig config_;
  SimDuration enforced_gap_;
  std::uint64_t sample_seed_;
  ShardedSwarmMap<Swarm> swarms_;
  std::unordered_map<ClientKey, SimTime, ClientKeyHash> last_query_;
  std::unordered_map<std::uint32_t, std::uint32_t> violations_;
  std::unordered_set<std::uint32_t> blacklist_;
  Stats stats_;
};

}  // namespace btpub
