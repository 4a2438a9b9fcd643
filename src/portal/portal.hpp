// portal.hpp — the BitTorrent index portal (The Pirate Bay / Mininova
// substitute).
//
// The portal is the rendezvous the paper crawls: it indexes .torrent files,
// announces new ones over an RSS feed (title, category, size, username),
// serves a per-content web page whose free-text "textbox" is where
// profit-driven publishers drop their promoting URL, serves per-user
// history pages (used for the Table-4 longitudinal study), and moderates —
// removing content reported as fake together with the account that
// published it (footnote 3 of the paper: the removal is the observable the
// authors use to label fake accounts).
//
// All read accessors take the observer's simulated time: a removal
// scheduled for Tuesday is invisible to a crawler reading the page on
// Monday. Removals may be scheduled in any order ahead of the crawl.
#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "crypto/sha1.hpp"
#include "portal/category.hpp"
#include "torrent/metainfo.hpp"
#include "util/time.hpp"

namespace btpub {

using TorrentId = std::uint32_t;
inline constexpr TorrentId kInvalidTorrent = ~TorrentId{0};

/// What a downloaded payload would reveal. Ground truth carried with the
/// listing; the crawler only learns it by explicitly "downloading" the
/// content (as the authors did for a sample of files, §5).
enum class PayloadKind : std::uint8_t {
  Genuine,
  FakeAntipiracy,  // broken copy + anti-piracy messages
  FakeMalware,     // decoy that points at malware
};

/// One RSS feed item, mirroring the fields the real feeds expose.
struct RssItem {
  TorrentId id = kInvalidTorrent;
  std::string title;
  ContentCategory category = ContentCategory::Other;
  std::string username;
  std::int64_t size_bytes = 0;
  SimTime published_at = 0;
};

/// The content web page as an observer at time `now` sees it.
struct ContentPage {
  TorrentId id = kInvalidTorrent;
  std::string title;
  ContentCategory category = ContentCategory::Other;
  Language language = Language::English;
  std::string username;
  std::string textbox;  // free-form description; may embed a promoting URL
  std::int64_t size_bytes = 0;
  SimTime published_at = 0;
  bool removed = false;
};

/// Per-user history page (the "username page" of §5.2): every publication
/// timestamp up to the observer's time, including history predating any
/// measurement window.
struct UserPage {
  std::string username;
  std::vector<SimTime> publish_times;  // ascending
  bool banned = false;                 // account removed by moderation

  bool operator==(const UserPage&) const = default;
};

/// Parameters of a publish call.
struct PublishRequest {
  std::string title;
  ContentCategory category = ContentCategory::Other;
  Language language = Language::English;
  std::string username;
  std::string textbox;
  TorrentFile torrent;              // the .torrent served to downloaders
  Sha1Digest infohash;
  std::int64_t size_bytes = 0;
  PayloadKind payload = PayloadKind::Genuine;
};

/// The portal itself.
class Portal {
 public:
  explicit Portal(std::string name) : name_(std::move(name)) {}

  const std::string& name() const noexcept { return name_; }

  /// Indexes a new torrent at simulated time `now`; returns its id.
  /// Ids are dense and increase with publication time.
  TorrentId publish(PublishRequest request, SimTime now);

  /// Back-fills publication timestamps that happened before the simulated
  /// window (longitudinal history only; no content page is created).
  /// `times` must be ascending (else std::invalid_argument); they merge into
  /// the user's history, which stays ascending.
  void record_history(std::string_view username, std::span<const SimTime> times);

  /// RSS read at time `now`: items with id > last_seen already published
  /// and not yet removed at `now`, oldest first, at most `limit`.
  std::vector<RssItem> rss_since(TorrentId last_seen, SimTime now,
                                 std::size_t limit = 200) const;

  /// Newest id, or kInvalidTorrent when nothing was ever published.
  TorrentId newest_id() const noexcept;

  /// Content page as seen at `now`; nullopt for unknown or not-yet-
  /// published ids. Pages removed before `now` are tombstones (removed
  /// flag set, textbox emptied).
  std::optional<ContentPage> page(TorrentId id, SimTime now) const;

  /// Serves .torrent bytes, written out from the held TorrentFile; nullopt
  /// when unknown, unpublished or removed.
  std::optional<std::string> fetch_torrent(TorrentId id, SimTime now) const;

  /// Emulates downloading & inspecting the payload, as the authors did for
  /// sampled files. nullopt once the content is removed — exactly what the
  /// paper reports for most fake files fetched weeks later.
  std::optional<PayloadKind> download_payload(TorrentId id, SimTime now) const;

  /// Moderation: schedules removal of the content and the ban of its
  /// publishing account at time `at`. May be called in any order; no-op on
  /// unknown ids or already-removed listings with an earlier timestamp.
  void moderate_remove(TorrentId id, SimTime at);

  /// Per-user history page at `now`; usernames never seen yield an empty
  /// page.
  UserPage user_page(std::string_view username, SimTime now) const;

  std::size_t listing_count() const noexcept { return listings_.size(); }

 private:
  struct Listing {
    ContentPage page;  // `removed` unset here; derived from removed_at
    TorrentFile torrent;
    Sha1Digest infohash;
    PayloadKind payload = PayloadKind::Genuine;
    SimTime removed_at = -1;  // -1 = never removed
  };
  struct UserState {
    std::vector<SimTime> publish_times;  // ascending
    SimTime banned_at = -1;  // -1 = never banned
  };

  bool removed_by(const Listing& l, SimTime now) const {
    return l.removed_at >= 0 && now >= l.removed_at;
  }

  std::string name_;
  std::vector<Listing> listings_;
  std::unordered_map<std::string, UserState> users_;
  SimTime last_publish_time_ = std::numeric_limits<SimTime>::min();
};

}  // namespace btpub
