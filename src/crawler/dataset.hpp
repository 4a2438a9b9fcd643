// dataset.hpp — what a crawl produces: per-torrent records, per-torrent
// distinct downloader IPs, publisher sighting timelines, and user-page
// snapshots. This is the *observed* world; the analysis pipeline consumes
// nothing else, in its struct-of-arrays form (compact_dataset.hpp).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "crypto/sha1.hpp"
#include "net/ip.hpp"
#include "portal/portal.hpp"
#include "util/time.hpp"

namespace btpub {

/// Which of the paper's three crawls a dataset emulates (Table 1).
enum class DatasetStyle : std::uint8_t {
  Mn08,  // Mininova 2008: IP-identified publishers only (no RSS username),
         // periodic tracker monitoring
  Pb09,  // Pirate Bay 2009: username from RSS, a single tracker query
  Pb10,  // Pirate Bay 2010: username + IP + full periodic monitoring
};

std::string_view to_string(DatasetStyle style);

/// One crawled torrent.
struct TorrentRecord {
  TorrentId portal_id = kInvalidTorrent;
  Sha1Digest infohash{};
  std::string title;
  ContentCategory category = ContentCategory::Other;
  Language language = Language::English;
  std::int64_t size_bytes = 0;
  /// Username from the RSS item; empty in mn08 style.
  std::string username;
  /// Initial publisher's IP when the bitfield probe identified it.
  std::optional<IpAddress> publisher_ip;
  SimTime published_at = 0;  // RSS timestamp
  SimTime first_seen = 0;    // first tracker contact
  /// Portal page snapshot taken at discovery (classification input).
  std::string textbox;
  /// Payload file names from the parsed metainfo (URL-promotion channel).
  std::vector<std::string> payload_filenames;
  /// Piece count from the parsed metainfo (needed to read peer bitfields).
  std::size_t piece_count = 0;
  /// Moderation observed during monitoring.
  bool observed_removed = false;
  SimTime observed_removed_at = -1;
  /// First-contact swarm state.
  std::uint32_t initial_seeders = 0;
  std::uint32_t initial_peers = 0;
  /// Monitoring aggregates.
  std::uint32_t query_count = 0;
  std::uint32_t max_concurrent = 0;

  bool operator==(const TorrentRecord&) const = default;
};

/// A full crawl result.
struct Dataset {
  std::string name;
  DatasetStyle style = DatasetStyle::Pb10;
  SimTime window_start = 0;
  SimTime window_end = 0;

  std::vector<TorrentRecord> torrents;
  /// Distinct downloader IPs per torrent (parallel to `torrents`); the
  /// identified publisher IP is excluded.
  std::vector<std::vector<IpAddress>> downloaders;
  /// Times the identified publisher IP was returned by the tracker
  /// (parallel to `torrents`; empty when the publisher was never
  /// identified). Input to the Appendix-A session estimator.
  std::vector<std::vector<SimTime>> publisher_sightings;
  /// User pages snapshotted at the end of the crawl (username -> page).
  std::unordered_map<std::string, UserPage> user_pages;

  /// Full structural equality: the lossless-round-trip and determinism
  /// tests compare datasets with it.
  bool operator==(const Dataset&) const = default;

  std::size_t torrent_count() const noexcept { return torrents.size(); }
};

}  // namespace btpub
