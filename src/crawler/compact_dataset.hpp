// compact_dataset.hpp — struct-of-arrays form of a crawl Dataset.
//
// The pointer-heavy Dataset (per-torrent std::strings, vector-of-vectors
// of downloader IPs, an unordered_map of user pages) costs a heap block —
// often several — per torrent, which caps the in-memory world size well
// short of the 500K-torrent / 10M-session target. CompactDataset stores
// the same information as seven flat arrays:
//
//   torrents            fixed-width TorrentRecordPod rows
//   text                one string arena; all strings are interned
//                       (identical strings share bytes) and referenced by
//                       (offset, length)
//   filename_refs       flattened payload-filename StrRefs
//   peer_blob           every downloader IP in 6-byte BEP-23 compact form
//                       (net/compact encoding, port 0 — the crawler's
//                       dataset keeps addresses, not ports), one
//                       contiguous blob with per-torrent [begin, end)
//                       entry spans
//   sightings           publisher sighting times, flattened
//   user_pages          UserPagePod rows sorted by username
//   user_publish_times  user-page publish times, flattened
//
// Conversion Dataset → CompactDataset is lossless, and CompactDatasetView
// exposes the arrays as spans without owning them — the same view type
// reads an in-memory CompactDataset or an mmap-ed snapshot
// (dataset_mmap.hpp) byte-for-byte identically. The view is the batch
// analysis layer's only input type; every pass reads it with zero
// inflation.
#pragma once

#include <array>
#include <cstdint>
#include <iosfwd>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "crawler/dataset.hpp"

namespace btpub {

/// (offset, length) into the interned text arena.
struct StrRef {
  std::uint32_t offset = 0;
  std::uint32_t length = 0;
};

/// [begin, end) element indices into one of the flattened arrays.
struct Span32 {
  std::uint32_t begin = 0;
  std::uint32_t end = 0;

  std::uint32_t size() const noexcept { return end - begin; }
};

/// Fixed-width row mirroring TorrentRecord; strings and variable-length
/// payloads live in the shared arenas. 8-byte fields lead so the row packs
/// without internal padding; the layout is pinned by the static_asserts
/// below because the mmap snapshot memcpy-s rows verbatim.
struct TorrentRecordPod {
  static constexpr std::uint8_t kHasPublisherIp = 1u << 0;
  static constexpr std::uint8_t kObservedRemoved = 1u << 1;

  std::int64_t size_bytes = 0;
  std::int64_t published_at = 0;
  std::int64_t first_seen = 0;
  std::int64_t observed_removed_at = -1;
  std::uint64_t piece_count = 0;
  StrRef title{};
  StrRef username{};
  StrRef textbox{};
  Span32 payload_filenames{};  // into filename_refs
  Span32 downloaders{};        // 6-byte entries in peer_blob
  Span32 sightings{};          // into sightings
  TorrentId portal_id = kInvalidTorrent;
  std::uint32_t publisher_ip = 0;  // valid iff flags & kHasPublisherIp
  std::uint32_t initial_seeders = 0;
  std::uint32_t initial_peers = 0;
  std::uint32_t query_count = 0;
  std::uint32_t max_concurrent = 0;
  std::array<std::uint8_t, 20> infohash{};
  std::uint8_t category = 0;
  std::uint8_t language = 0;
  std::uint8_t flags = 0;
  std::uint8_t reserved = 0;
};
static_assert(sizeof(TorrentRecordPod) == 136, "layout is part of the format");
static_assert(alignof(TorrentRecordPod) == 8);
static_assert(std::is_trivially_copyable_v<TorrentRecordPod>);

/// Fixed-width row mirroring UserPage.
struct UserPagePod {
  static constexpr std::uint32_t kBanned = 1u << 0;

  StrRef username{};
  Span32 publish_times{};  // into user_publish_times
  std::uint32_t flags = 0;
};
static_assert(sizeof(UserPagePod) == 20, "layout is part of the format");
static_assert(std::is_trivially_copyable_v<UserPagePod>);

/// Non-owning view over the seven arrays plus the dataset header. Produced
/// by CompactDataset::view() and by MappedDataset (dataset_mmap.hpp).
struct CompactDatasetView {
  std::string_view name;
  DatasetStyle style = DatasetStyle::Pb10;
  SimTime window_start = 0;
  SimTime window_end = 0;

  std::span<const TorrentRecordPod> torrents;
  std::string_view text;
  std::span<const StrRef> filename_refs;
  std::string_view peer_blob;  // size = 6 x downloader entries
  std::span<const SimTime> sightings;
  std::span<const UserPagePod> user_pages;  // sorted by username
  std::span<const SimTime> user_publish_times;

  std::string_view str(StrRef ref) const noexcept {
    return text.substr(ref.offset, ref.length);
  }
  std::string_view title(const TorrentRecordPod& r) const noexcept { return str(r.title); }
  std::string_view username(const TorrentRecordPod& r) const noexcept {
    return str(r.username);
  }
  std::string_view textbox(const TorrentRecordPod& r) const noexcept {
    return str(r.textbox);
  }
  /// The identified publisher IP, when the bitfield probe found one.
  std::optional<IpAddress> publisher_ip(const TorrentRecordPod& r) const noexcept {
    if ((r.flags & TorrentRecordPod::kHasPublisherIp) == 0) return std::nullopt;
    return IpAddress(r.publisher_ip);
  }

  /// Decodes downloader entry `i` of a torrent's span (BEP-23 big-endian).
  IpAddress downloader_ip(const TorrentRecordPod& r, std::uint32_t i) const noexcept {
    const auto* p = reinterpret_cast<const unsigned char*>(
        peer_blob.data() + std::size_t{6} * (r.downloaders.begin + i));
    return IpAddress((std::uint32_t{p[0]} << 24) | (std::uint32_t{p[1]} << 16) |
                     (std::uint32_t{p[2]} << 8) | std::uint32_t{p[3]});
  }
  std::size_t downloader_count(const TorrentRecordPod& r) const noexcept {
    return r.downloaders.size();
  }
  std::span<const SimTime> sightings_of(const TorrentRecordPod& r) const noexcept {
    return sightings.subspan(r.sightings.begin, r.sightings.size());
  }
  std::span<const StrRef> filenames_of(const TorrentRecordPod& r) const noexcept {
    return filename_refs.subspan(r.payload_filenames.begin,
                                 r.payload_filenames.size());
  }
  std::span<const SimTime> publish_times_of(const UserPagePod& p) const noexcept {
    return user_publish_times.subspan(p.publish_times.begin,
                                      p.publish_times.size());
  }

  /// Binary search over the username-sorted user pages.
  const UserPagePod* find_user(std::string_view username) const noexcept;

  // ---- Table-1 summary helpers, span-native. ----
  std::size_t torrent_count() const noexcept { return torrents.size(); }
  std::size_t with_username() const noexcept;
  std::size_t with_publisher_ip() const noexcept;
  /// Every downloader entry decoded once, sorted ascending, duplicates
  /// removed: the one distinct-downloader routine (demographics, the
  /// consumer checks and distinct_ips_global all read it).
  std::vector<IpAddress> distinct_downloader_ips() const;
  std::size_t distinct_ips_global() const;
  std::size_t ip_observations_total() const noexcept;
};

/// Owning struct-of-arrays dataset.
struct CompactDataset {
  std::string name;
  DatasetStyle style = DatasetStyle::Pb10;
  SimTime window_start = 0;
  SimTime window_end = 0;

  std::vector<TorrentRecordPod> torrents;
  std::vector<char> text;
  std::vector<StrRef> filename_refs;
  std::vector<char> peer_blob;
  std::vector<SimTime> sightings;
  std::vector<UserPagePod> user_pages;
  std::vector<SimTime> user_publish_times;

  /// Ref-qualified: a view borrows this object's arrays, so taking one
  /// from a temporary would dangle immediately.
  CompactDatasetView view() const& noexcept;
  CompactDatasetView view() const&& = delete;

  /// Total bytes across all arrays (the RSS story, modulo vector slack).
  std::size_t byte_size() const noexcept;
};

/// Incremental builder: appends one torrent at a time, interning strings
/// as it goes. Lets bulk producers (the snapshot bench's synthetic worlds,
/// streaming converters) assemble the compact form without ever holding a
/// pointer-heavy Dataset.
class CompactDatasetBuilder {
 public:
  CompactDatasetBuilder();

  void set_header(std::string name, DatasetStyle style, SimTime window_start,
                  SimTime window_end);

  /// Appends one torrent row. `downloaders` and `sightings` are copied into
  /// the flat arrays; record fields are interned/flattened.
  void add_torrent(const TorrentRecord& record,
                   std::span<const IpAddress> downloaders,
                   std::span<const SimTime> sightings);

  /// Appends one user page; pages may arrive in any order (sorted on
  /// finish()).
  void add_user_page(const UserPage& page);

  /// Sorts user pages and releases the finished dataset. The builder is
  /// reusable afterwards (empty state).
  CompactDataset finish();

 private:
  StrRef intern(std::string_view s);

  CompactDataset out_;
  // Dedup index: FNV-1a hash -> interned ref. On the (astronomically rare)
  // hash collision with different bytes the string is stored twice, which
  // costs bytes, never correctness.
  std::vector<std::pair<std::uint64_t, StrRef>> intern_index_;
  std::size_t intern_mask_ = 0;
  std::size_t interned_ = 0;
  void rehash_interns(std::size_t capacity);
};

/// Checks that every StrRef lies inside the text arena, every Span32
/// (payload filenames, downloaders, sightings, user-page publish times)
/// inside its flat array, every category/language byte names an enum
/// value, and every sighting and publish time lies within ±2^53 seconds;
/// throws std::runtime_error naming the first bad field. One O(n) pass:
/// once it has passed, the view's unchecked accessors are in bounds and
/// time arithmetic cannot overflow, so the analysis passes read it without
/// per-record checks.
void validate(const CompactDatasetView& view);

/// Lossless conversion from the crawler's output; a crawl is read back
/// only through the view.
CompactDataset compact_dataset(const Dataset& dataset);

/// The CSV export (`btpub export`): one torrents row per torrent
/// (portal_id, infohash, title, category, username, publisher_ip,
/// published_at, downloads, removed; text fields csv_escape()d, an
/// unidentified publisher IP empty) and one sightings row per publisher
/// sighting (portal_id, time_seconds), each file under a header line.
/// Expects a view that has passed validate().
void write_csv(const CompactDatasetView& view, std::ostream& torrents,
               std::ostream& sightings);

}  // namespace btpub
