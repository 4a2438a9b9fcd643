// observer.hpp — the crawl-time observation stream (§4.5).
//
// Both measurement vantages (the tracker crawler and the DHT crawler) can
// push what they see — discoveries, announce-reply peers, publisher
// sightings, moderation removals, end-of-crawl user pages — into an
// attached CrawlObserver *while crawling*, instead of only materializing a
// Dataset afterwards. The streaming analysis layer
// (analysis/streaming/streaming_classifier.hpp) is the production
// implementation; tests attach recording stubs.
//
// Threading contract: hooks fire from one thread. For each torrent,
// on_discover precedes every other hook for that id. Cross-torrent order
// is the crawler's (Crawler::crawl_window goes in portal-id order), and
// one observer may be fed by both vantages, interleaved (live_monitor does
// this), so an observer that wants order-independent results keeps its
// cross-torrent state commutative (see analysis/streaming/sketch.hpp).
// on_user_page is called after every torrent's other hooks.
#pragma once

#include <span>
#include <string>

#include "crawler/dataset.hpp"

namespace btpub {

class CrawlObserver {
 public:
  virtual ~CrawlObserver() = default;

  /// A torrent entered monitoring. For the tracker vantage the record
  /// already carries the first-contact swarm state and the identified
  /// publisher IP (when the bitfield probe succeeded); the DHT vantage
  /// never identifies publishers. Fires before any per-peer hook for `id`.
  virtual void on_discover(const TorrentRecord& record, SimTime now) = 0;

  /// One query's returned peers, publisher excluded (tracker vantage) or
  /// all returned IPs (DHT vantage, which cannot exclude what it cannot
  /// identify — mirroring Dataset::downloaders semantics per vantage).
  /// Raw per-reply observations: the same IP reappears across replies.
  virtual void on_downloaders(TorrentId id, std::span<const IpAddress> ips,
                              SimTime now) = 0;

  /// The identified publisher IP appeared in a reply (tracker vantage only).
  virtual void on_publisher_sighting(TorrentId id, SimTime now) = 0;

  /// Monitoring observed the portal page's moderation removal.
  virtual void on_removal(TorrentId id, SimTime now) = 0;

  /// End-of-crawl user-page snapshot (ban state); serial, portal-id order.
  virtual void on_user_page(const std::string& username,
                            const UserPage& page) = 0;
};

}  // namespace btpub
