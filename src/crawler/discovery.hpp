// discovery.hpp — the measurement rules both crawl vantages share (§2):
// which torrents a crawl of a window covers, when each one is discovered,
// what its record holds, and the end-of-crawl user-page snapshot. The
// tracker crawler (crawler.hpp) and the DHT crawler (dht_crawler.hpp) both
// call these, so the two vantages observe the same torrents in the same
// way and the cross-check (cross_check.hpp) compares like with like.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "crawler/dataset.hpp"
#include "crawler/observer.hpp"
#include "portal/portal.hpp"

namespace btpub {

/// The RSS polling period (how fast a birth is detected): the DHT
/// vantage's, and the tracker vantage's default.
inline constexpr SimDuration kRssPoll = minutes(5);

/// Both vantages keep monitoring at most this long past the window end,
/// and snapshot the user pages then.
inline constexpr SimDuration kCrawlGrace = days(3);

/// A torrent a crawl covers and the time the crawler first fetches it.
struct WindowTorrent {
  TorrentId id = kInvalidTorrent;
  SimTime discovery = 0;
};

/// When a crawler polling the RSS feed every `rss_poll` learns of a torrent
/// published at `published_at`: the next poll tick, plus a handling delay
/// of uniform_int(5, 60) seconds for the .torrent download, drawn from the
/// torrent's own substream derive_seed(seed, id) so it depends on nothing
/// but (seed, id).
SimTime discovery_time(SimTime published_at, SimDuration rss_poll,
                       std::uint64_t seed, TorrentId id);

/// The torrents published in [window_start, window_end), id-ascending, with
/// their discovery times. Walks the portal's dense id space, peeking only
/// at each page's publication time as of window_end: ids are
/// publication-ordered, so this is equivalent to having tailed the RSS
/// feed throughout the window.
std::vector<WindowTorrent> window_torrents(const Portal& portal,
                                           SimTime window_start,
                                           SimTime window_end,
                                           SimDuration rss_poll,
                                           std::uint64_t seed);

/// The record a crawler builds when it fetches torrent `id` at `now`: the
/// page fields (no username in mn08 style), then the infohash, piece count
/// and file names of the parsed .torrent. nullopt when the page is gone or
/// removed, the .torrent cannot be fetched, or it is malformed — skipped,
/// as a real crawler would. first_seen and the observations stay unset.
std::optional<TorrentRecord> fetch_record(const Portal& portal, TorrentId id,
                                          SimTime now, DatasetStyle style);

/// Re-checks a monitored torrent's content page at `now`: the first time it
/// shows a moderation removal, marks `record` and tells `observer` (if set).
void check_removal(const Portal& portal, TorrentRecord& record, SimTime now,
                   CrawlObserver* observer);

/// Snapshots, as of `at`, the user page of every username in the dataset
/// (§5.2's longitudinal view); mn08 has no usernames and gets none. Each
/// newly snapshotted page is also handed to `observer`, when set.
void snapshot_user_pages(const Portal& portal, Dataset& dataset, SimTime at,
                         CrawlObserver* observer);

}  // namespace btpub
