// crawler.hpp — the paper's measurement methodology (§2), end to end:
//
//   1. poll the portal RSS feed to learn about a newborn torrent;
//   2. download the .torrent, parse it, contact the tracker immediately;
//   3. if the young swarm has a single seeder and few peers, probe every
//      returned peer over the peer-wire protocol and identify the complete
//      bitfield — that peer's IP is the initial publisher;
//   4. keep querying the tracker (always soliciting the maximum number of
//      peers, respecting the tracker's rate limit) from one or more vantage
//      machines until ten consecutive empty replies;
//   5. map addresses with the GeoIP database; snapshot content pages and,
//      at the end of the crawl, user pages.
//
// The crawler sees only public interfaces: RSS items, page snapshots,
// bencoded tracker replies and peer-wire bytes. It never touches simulator
// ground truth.
//
// Parallel crawl engine: crawl_window fans the per-torrent monitoring loop
// out with parallel_for (the paper ran 14 vantage machines over
// ~55K torrents concurrently). Three properties make the parallel crawl
// byte-identical to the sequential one:
//   * every torrent draws from its own RNG substream derived from
//     (seed, portal id), never from a shared sequential stream;
//   * the tracker's announce path is thread-safe with stateless peer
//     sampling keyed on the query identity (see tracker.hpp);
//   * results are merged in portal-id order regardless of completion order.
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_set>

#include "crawler/dataset.hpp"
#include "crawler/discovery.hpp"
#include "crawler/observer.hpp"
#include "geo/geo_db.hpp"
#include "portal/portal.hpp"
#include "swarm/network.hpp"
#include "tracker/tracker.hpp"
#include "util/rng.hpp"

namespace btpub {

/// Peers solicited per query (the tracker caps at its own maximum).
inline constexpr std::size_t kCrawlerNumwant = 200;
/// How often a monitored torrent's content page is re-checked for
/// moderation removals.
inline constexpr SimDuration kPageRecheck = hours(12);

struct CrawlerConfig {
  DatasetStyle style = DatasetStyle::Pb10;
  /// RSS polling period (how fast a birth is detected).
  SimDuration rss_poll = kRssPoll;
  /// Geographically-distributed query machines.
  std::size_t vantage_points = 1;
  /// Stop monitoring a swarm after this many consecutive empty replies.
  std::uint32_t empty_replies_to_stop = 10;
  /// Only attempt seeder identification when the swarm has fewer
  /// participants than this (paper: 20) and exactly one seeder.
  std::uint32_t max_probe_peers = 20;
  /// Worker threads for crawl_window; 0 = hardware concurrency. The
  /// resulting dataset is identical for every thread count.
  std::size_t threads = 0;
};

class Crawler {
 public:
  Crawler(const Portal& portal, Tracker& tracker, SwarmNetwork& network,
          const GeoDb& geo, CrawlerConfig config, std::uint64_t seed);

  /// Crawls every torrent published in [window_start, window_end); returns
  /// the dataset. Deterministic given the seed, independent of
  /// config.threads and of scheduling order.
  Dataset crawl_window(SimTime window_start, SimTime window_end);

  /// Discovery + first tracker contact for a single torrent (the pb09
  /// behaviour, also used by the live monitor). `downloaders` and
  /// `sightings` receive the first-contact observations.
  std::optional<TorrentRecord> discover(TorrentId id, SimTime now,
                                        std::vector<IpAddress>& downloaders,
                                        std::vector<SimTime>& sightings);

  /// Attaches the crawl-time observation stream (§4.5). The observer
  /// outlives the crawl and receives hooks from every worker thread —
  /// see observer.hpp for the threading contract. Null detaches.
  void set_observer(CrawlObserver* observer) noexcept { observer_ = observer; }

 private:
  /// Everything one torrent's crawl produces; merged in portal-id order.
  struct CrawlResult {
    TorrentRecord record;
    std::vector<IpAddress> downloaders;
    std::vector<SimTime> sightings;
    bool ok = false;
  };

  /// Per-worker reusable state for the announce fast path: the decoded
  /// reply, the tracker's sampling scratch and the per-torrent seen-IP
  /// dedup set all keep their capacity across torrents, so the monitor
  /// loop's inner announce is allocation-free at steady state. Owned by
  /// exactly one worker; `seen` is cleared at the start of each torrent.
  struct CrawlScratch {
    AnnounceReply reply;
    Tracker::AnnounceScratch announce;
    std::unordered_set<IpAddress> seen;
    /// Per-reply non-publisher IPs batched into one observer push.
    std::vector<IpAddress> observed;
  };

  /// Full per-torrent crawl (discovery + monitoring). Pure function of
  /// (torrent, window_end) — safe to run concurrently for distinct
  /// torrents as long as each worker owns its scratch.
  CrawlResult crawl_one(const WindowTorrent& torrent, SimTime window_end,
                        CrawlScratch& scratch);

  /// Discovery with externally-owned scratch (so monitoring can keep
  /// extending the dedup set).
  std::optional<TorrentRecord> discover_with(TorrentId id, SimTime now,
                                             std::vector<IpAddress>& downloaders,
                                             std::vector<SimTime>& sightings,
                                             CrawlScratch& scratch);

  /// First tracker contact + (conditional) initial-seeder identification.
  void first_contact(TorrentRecord& record, std::vector<IpAddress>& ips,
                     std::vector<SimTime>& sightings, CrawlScratch& scratch,
                     SimTime now);
  /// Periodic monitoring until the empty-reply stop rule fires.
  void monitor(TorrentRecord& record, std::vector<IpAddress>& ips,
               std::vector<SimTime>& sightings, CrawlScratch& scratch,
               SimTime hard_stop);
  Endpoint vantage(std::size_t index) const;
  /// Dedup-inserts the peers of a reply; records publisher sightings and
  /// streams both to the attached observer.
  void record_reply(const AnnounceReply& reply, TorrentRecord& record,
                    std::vector<IpAddress>& ips, std::vector<SimTime>& sightings,
                    CrawlScratch& scratch, SimTime now);

  const Portal* portal_;
  Tracker* tracker_;
  SwarmNetwork* network_;
  const GeoDb* geo_;
  CrawlObserver* observer_ = nullptr;
  CrawlerConfig config_;
  /// Root seed of the discovery jitter (see discovery_time).
  std::uint64_t seed_;
};

}  // namespace btpub
