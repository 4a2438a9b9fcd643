#include "crawler/cross_check.hpp"

#include <algorithm>
#include <unordered_set>

namespace btpub {

/// A torrent is only judged on set overlap once the tracker saw at least
/// this many distinct peers (tiny swarms disagree by chance).
constexpr std::size_t kMinTrackerPeers = 5;
/// Flag when fewer than this fraction of tracker-observed IPs were also
/// returned by the DHT.
constexpr double kMinOverlap = 0.5;

std::size_t CrossCheckReport::flagged_count() const {
  return static_cast<std::size_t>(
      std::count_if(torrents.begin(), torrents.end(),
                    [](const TorrentCrossCheck& t) { return t.flagged; }));
}

CrossCheckReport cross_check(const Dataset& tracker, const Dataset& dht) {
  CrossCheckReport report;
  // Both vantages emit torrents in portal-id order; a single merge walk
  // pairs them up.
  std::size_t di = 0;
  for (std::size_t ti = 0; ti < tracker.torrents.size(); ++ti) {
    const TorrentRecord& tr = tracker.torrents[ti];
    while (di < dht.torrents.size() &&
           dht.torrents[di].portal_id < tr.portal_id) {
      ++di;
    }
    if (di >= dht.torrents.size() ||
        dht.torrents[di].portal_id != tr.portal_id) {
      continue;
    }

    std::unordered_set<IpAddress> dht_ips(dht.downloaders[di].begin(),
                                          dht.downloaders[di].end());
    TorrentCrossCheck check;
    check.portal_id = tr.portal_id;
    check.dht_peers = dht_ips.size();
    check.tracker_publisher_ip = tr.publisher_ip;

    // The tracker dataset keeps the identified publisher out of
    // `downloaders`; fold it back in so both sides describe the same
    // quantity (every IP the vantage observed in the swarm).
    std::size_t tracker_peers = tracker.downloaders[ti].size();
    std::size_t common = 0;
    for (const IpAddress& ip : tracker.downloaders[ti]) {
      if (dht_ips.contains(ip)) ++common;
    }
    if (tr.publisher_ip) {
      ++tracker_peers;
      check.publisher_in_dht = dht_ips.contains(*tr.publisher_ip);
      if (check.publisher_in_dht) ++common;
    }
    check.tracker_peers = tracker_peers;
    check.common = common;
    check.overlap = tracker_peers == 0
                        ? 1.0
                        : static_cast<double>(common) /
                              static_cast<double>(tracker_peers);

    const bool publisher_missing =
        tr.publisher_ip.has_value() && !check.publisher_in_dht;
    const bool low_overlap = tracker_peers >= kMinTrackerPeers &&
                             check.overlap < kMinOverlap;
    check.flagged = publisher_missing || low_overlap;
    report.torrents.push_back(check);
  }
  return report;
}

}  // namespace btpub
