#include "crawler/discovery.hpp"

#include "torrent/metainfo.hpp"
#include "util/rng.hpp"

namespace btpub {

SimTime discovery_time(SimTime published_at, SimDuration rss_poll,
                       std::uint64_t seed, TorrentId id) {
  Rng rng(derive_seed(seed, static_cast<std::uint64_t>(id)));
  const SimTime poll_tick = ((published_at / rss_poll) + 1) * rss_poll;
  return poll_tick + static_cast<SimDuration>(rng.uniform_int(5, 60));
}

std::vector<WindowTorrent> window_torrents(const Portal& portal,
                                           SimTime window_start,
                                           SimTime window_end,
                                           SimDuration rss_poll,
                                           std::uint64_t seed) {
  std::vector<WindowTorrent> torrents;
  const TorrentId newest = portal.newest_id();
  if (newest == kInvalidTorrent) return torrents;
  for (TorrentId id = 0; id <= newest; ++id) {
    // Peek only at the publication timestamp; all content access goes
    // through fetch_record() at the discovery time.
    const auto page = portal.page(id, window_end);
    if (!page) continue;
    if (page->published_at < window_start || page->published_at >= window_end) {
      continue;
    }
    torrents.push_back(WindowTorrent{
        id, discovery_time(page->published_at, rss_poll, seed, id)});
  }
  return torrents;
}

std::optional<TorrentRecord> fetch_record(const Portal& portal, TorrentId id,
                                          SimTime now, DatasetStyle style) {
  const auto page = portal.page(id, now);
  if (!page || page->removed) return std::nullopt;
  auto torrent_bytes = portal.fetch_torrent(id, now);
  if (!torrent_bytes) return std::nullopt;

  Metainfo metainfo;
  try {
    metainfo = Metainfo::parse(std::move(*torrent_bytes));
  } catch (const std::exception&) {
    return std::nullopt;
  }

  TorrentRecord record;
  record.portal_id = id;
  record.title = page->title;
  record.category = page->category;
  record.language = page->language;
  record.size_bytes = page->size_bytes;
  record.published_at = page->published_at;
  record.textbox = page->textbox;
  if (style != DatasetStyle::Mn08) record.username = page->username;
  record.infohash = metainfo.infohash();
  record.piece_count = metainfo.piece_count();
  for (const FileEntry& f : metainfo.files()) {
    record.payload_filenames.push_back(f.path);
  }
  return record;
}

void check_removal(const Portal& portal, TorrentRecord& record, SimTime now,
                   CrawlObserver* observer) {
  if (record.observed_removed) return;
  const auto page = portal.page(record.portal_id, now);
  if (!page || !page->removed) return;
  record.observed_removed = true;
  record.observed_removed_at = now;
  if (observer) observer->on_removal(record.portal_id, now);
}

void snapshot_user_pages(const Portal& portal, Dataset& dataset, SimTime at,
                         CrawlObserver* observer) {
  if (dataset.style == DatasetStyle::Mn08) return;
  for (const TorrentRecord& record : dataset.torrents) {
    if (record.username.empty()) continue;
    if (dataset.user_pages.contains(record.username)) continue;
    const auto it = dataset.user_pages
                        .emplace(record.username,
                                 portal.user_page(record.username, at))
                        .first;
    if (observer) observer->on_user_page(record.username, it->second);
  }
}

}  // namespace btpub
