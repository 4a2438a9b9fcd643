// cross_check.hpp — tracker-vs-DHT vantage comparison.
//
// A tracker believes whatever address an announce *claims*; a DHT node
// stores the announce datagram's *source* address. A publisher that feeds
// the tracker spoofed peers (decoy injection, the fake-publisher playbook)
// therefore produces a swarm whose tracker view and DHT view disagree:
// the claimed addresses never show up in any get_peers walk. The
// cross-check lines the two datasets up per torrent and flags exactly that
// signature.
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

#include "crawler/dataset.hpp"

namespace btpub {

/// One torrent's comparison, matched by portal id.
struct TorrentCrossCheck {
  TorrentId portal_id = kInvalidTorrent;
  /// Publisher IP the tracker vantage identified (bitfield probe), if any.
  std::optional<IpAddress> tracker_publisher_ip;
  /// Whether that IP appeared in any DHT lookup for this torrent.
  bool publisher_in_dht = false;
  std::size_t tracker_peers = 0;  // distinct IPs, publisher included
  std::size_t dht_peers = 0;      // distinct IPs from get_peers walks
  std::size_t common = 0;
  /// |common| / |tracker_peers|; 1.0 when the tracker saw nothing.
  double overlap = 1.0;
  /// The fake-publisher signature: an identified publisher missing from
  /// the DHT, or a tracker peer set the DHT largely cannot confirm.
  bool flagged = false;
};

struct CrossCheckReport {
  std::vector<TorrentCrossCheck> torrents;  // portal-id ascending
  std::size_t flagged_count() const;
  /// Torrents present in both datasets.
  std::size_t matched_count() const noexcept { return torrents.size(); }
};

/// Compares a tracker-vantage dataset with a DHT-vantage dataset of the
/// same window. Torrents are matched by portal id; ones seen by only one
/// vantage are skipped.
CrossCheckReport cross_check(const Dataset& tracker, const Dataset& dht);

}  // namespace btpub
