// dht_crawler.hpp — the trackerless measurement vantage: iterative
// get_peers walks over the simulated Mainline DHT, emitting the same
// Dataset schema as the tracker crawler so the analysis pipeline (and the
// cross-check report) can consume either vantage unchanged.
//
// Methodology differences from the tracker vantage:
//   * peers come from iterative DHT lookups instead of announce replies,
//     so there are no seeder/leecher counts and no numwant cap — a lookup
//     returns whatever the k closest nodes stored;
//   * no peer-wire probing: the DHT vantage never identifies the initial
//     publisher itself (publisher_ip stays unset) — identifying who is
//     *missing* from the DHT relative to the tracker is exactly the
//     cross-check's job (see cross_check.hpp);
//   * `downloaders` therefore holds every distinct IP the DHT returned,
//     publisher included.
//
// Determinism: the crawler runs one global polling loop ordered by
// (time, portal id), so the overlay — whose scheduled life (joins,
// announces, departures) is replayed by advance_to — is driven by a single
// monotone time sweep. Two crawls of identically-seeded overlays are
// byte-identical.
#pragma once

#include <cstdint>
#include <string>

#include "crawler/dataset.hpp"
#include "crawler/discovery.hpp"
#include "crawler/observer.hpp"
#include "dht/overlay.hpp"
#include "portal/portal.hpp"

namespace btpub {

/// Period between get_peers walks on a monitored torrent. DHT lookups cost
/// ~20 messages each, so the cadence is coarser than the tracker's.
inline constexpr SimDuration kDhtPollInterval = minutes(30);
/// Stop monitoring after this many consecutive peerless lookups.
inline constexpr std::uint32_t kEmptyLookupsToStop = 10;

/// Torrents are discovered at kRssPoll, the tracker vantage's default.
struct DhtCrawlerConfig {
  DatasetStyle style = DatasetStyle::Pb10;
  /// Monitoring continues at most this long past the window end. A
  /// member so that overlay horizons read it off the config.
  static constexpr SimDuration grace = kCrawlGrace;
  /// Optional magnet URI whose x.pe peer hints seed every lookup's
  /// shortlist (the operator's bootstrap entry points). Empty, absent or
  /// malformed x.pe-less magnets fall back to the overlay router.
  std::string bootstrap_magnet;
};

/// Aggregate lookup telemetry for one crawl (feeds perfbench's dht.* counts).
struct DhtCrawlTotals {
  std::uint64_t lookups = 0;
  std::uint64_t messages = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t hops = 0;       // summed over lookups
  std::uint32_t max_hops = 0;
};

class DhtCrawler {
 public:
  DhtCrawler(const Portal& portal, dht::DhtOverlay& overlay,
             DhtCrawlerConfig config, std::uint64_t seed);

  /// Crawls every torrent published in [window_start, window_end) from the
  /// DHT vantage. Deterministic given (overlay seed+schedule, seed).
  Dataset crawl_window(SimTime window_start, SimTime window_end);

  const DhtCrawlTotals& totals() const noexcept { return totals_; }

  /// Attaches the crawl-time observation stream (§4.5). The DHT vantage
  /// never identifies publishers, so on_downloaders carries every returned
  /// IP and on_publisher_sighting never fires — mirroring the vantage's
  /// Dataset semantics. Single-threaded: hooks fire from the polling loop.
  void set_observer(CrawlObserver* observer) noexcept { observer_ = observer; }

 private:
  /// The single measurement box; read-only (BEP 43), so the vantage never
  /// enters any routing table.
  Endpoint vantage() const;

  const Portal* portal_;
  dht::DhtOverlay* overlay_;
  CrawlObserver* observer_ = nullptr;
  DhtCrawlerConfig config_;
  std::uint64_t seed_;
  std::vector<Endpoint> bootstrap_;
  DhtCrawlTotals totals_;
  /// Per-lookup IP batch for the observer push (capacity reused).
  std::vector<IpAddress> observed_;
};

}  // namespace btpub
