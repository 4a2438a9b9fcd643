#include "crawler/compact_dataset.hpp"

#include <algorithm>
#include <cstring>
#include <limits>
#include <ostream>
#include <stdexcept>

#include "net/compact.hpp"
#include "util/strings.hpp"

namespace btpub {
namespace {

std::uint64_t fnv1a(std::string_view s) noexcept {
  std::uint64_t h = 1469598103934665603ull;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

[[noreturn]] void corrupt(const char* what) {
  throw std::runtime_error(std::string("compact_dataset: corrupt view: ") + what);
}

void check_str(const CompactDatasetView& view, StrRef ref, const char* what) {
  if (std::uint64_t{ref.offset} + ref.length > view.text.size()) corrupt(what);
}

void check_span(Span32 span, std::size_t limit, const char* what) {
  if (span.begin > span.end || span.end > limit) corrupt(what);
}

/// Sighting and publish times further than this from the epoch (~285
/// million years of seconds) can only come from corruption. The bound
/// keeps the differences and sums the session and longitudinal passes
/// compute far from int64 overflow.
constexpr SimTime kMaxAbsTime = SimTime{1} << 53;

void check_times(std::span<const SimTime> times, const char* what) {
  for (const SimTime t : times) {
    if (t > kMaxAbsTime || t < -kMaxAbsTime) corrupt(what);
  }
}

/// Checks an on-disk enum byte names a value of an enum whose values run
/// from 0 to `last`.
template <typename Enum>
void check_enum(std::uint8_t raw, Enum last, const char* what) {
  if (raw > static_cast<std::uint8_t>(last)) corrupt(what);
}

}  // namespace

// ---------------------------------------------------------------- view --

const UserPagePod* CompactDatasetView::find_user(std::string_view username) const
    noexcept {
  const auto it = std::partition_point(
      user_pages.begin(), user_pages.end(),
      [&](const UserPagePod& p) { return str(p.username) < username; });
  if (it == user_pages.end() || str(it->username) != username) return nullptr;
  return &*it;
}

std::size_t CompactDatasetView::with_username() const noexcept {
  std::size_t n = 0;
  for (const TorrentRecordPod& r : torrents) n += r.username.length > 0;
  return n;
}

std::size_t CompactDatasetView::with_publisher_ip() const noexcept {
  std::size_t n = 0;
  for (const TorrentRecordPod& r : torrents) {
    n += (r.flags & TorrentRecordPod::kHasPublisherIp) != 0;
  }
  return n;
}

std::vector<IpAddress> CompactDatasetView::distinct_downloader_ips() const {
  std::vector<IpAddress> ips;
  ips.reserve(ip_observations_total());
  for (const TorrentRecordPod& r : torrents) {
    for (std::uint32_t i = 0; i < r.downloaders.size(); ++i) {
      ips.push_back(downloader_ip(r, i));
    }
  }
  std::sort(ips.begin(), ips.end());
  ips.erase(std::unique(ips.begin(), ips.end()), ips.end());
  return ips;
}

std::size_t CompactDatasetView::distinct_ips_global() const {
  return distinct_downloader_ips().size();
}

std::size_t CompactDatasetView::ip_observations_total() const noexcept {
  std::size_t n = 0;
  for (const TorrentRecordPod& r : torrents) n += r.downloaders.size();
  return n;
}

CompactDatasetView CompactDataset::view() const& noexcept {
  CompactDatasetView v;
  v.name = name;
  v.style = style;
  v.window_start = window_start;
  v.window_end = window_end;
  v.torrents = torrents;
  v.text = std::string_view(text.data(), text.size());
  v.filename_refs = filename_refs;
  v.peer_blob = std::string_view(peer_blob.data(), peer_blob.size());
  v.sightings = sightings;
  v.user_pages = user_pages;
  v.user_publish_times = user_publish_times;
  return v;
}

std::size_t CompactDataset::byte_size() const noexcept {
  return name.size() + torrents.size() * sizeof(TorrentRecordPod) + text.size() +
         filename_refs.size() * sizeof(StrRef) + peer_blob.size() +
         sightings.size() * sizeof(SimTime) +
         user_pages.size() * sizeof(UserPagePod) +
         user_publish_times.size() * sizeof(SimTime);
}

// ------------------------------------------------------------- builder --

CompactDatasetBuilder::CompactDatasetBuilder() { rehash_interns(1024); }

void CompactDatasetBuilder::rehash_interns(std::size_t capacity) {
  std::vector<std::pair<std::uint64_t, StrRef>> old = std::move(intern_index_);
  intern_index_.assign(capacity, {0, StrRef{}});
  intern_mask_ = capacity - 1;
  for (const auto& [hash, ref] : old) {
    if (ref.length == 0) continue;
    std::size_t i = static_cast<std::size_t>(hash) & intern_mask_;
    while (intern_index_[i].second.length != 0) i = (i + 1) & intern_mask_;
    intern_index_[i] = {hash, ref};
  }
}

StrRef CompactDatasetBuilder::intern(std::string_view s) {
  if (s.empty()) return StrRef{};
  if (s.size() > std::numeric_limits<std::uint32_t>::max()) {
    throw std::runtime_error("compact_dataset: string too large to intern");
  }
  if ((interned_ + 1) * 4 > (intern_mask_ + 1) * 3) {
    rehash_interns((intern_mask_ + 1) * 2);
  }
  const std::uint64_t hash = fnv1a(s);
  std::size_t i = static_cast<std::size_t>(hash) & intern_mask_;
  for (;;) {
    auto& slot = intern_index_[i];
    if (slot.second.length == 0) break;  // free slot: new string
    if (slot.first == hash) {
      const std::string_view held(out_.text.data() + slot.second.offset,
                                  slot.second.length);
      if (held == s) return slot.second;
    }
    i = (i + 1) & intern_mask_;
  }
  if (out_.text.size() + s.size() > std::numeric_limits<std::uint32_t>::max()) {
    throw std::runtime_error("compact_dataset: text arena exceeds 4 GiB");
  }
  const StrRef ref{static_cast<std::uint32_t>(out_.text.size()),
                   static_cast<std::uint32_t>(s.size())};
  out_.text.insert(out_.text.end(), s.begin(), s.end());
  intern_index_[i] = {hash, ref};
  ++interned_;
  return ref;
}

void CompactDatasetBuilder::set_header(std::string name, DatasetStyle style,
                                       SimTime window_start, SimTime window_end) {
  out_.name = std::move(name);
  out_.style = style;
  out_.window_start = window_start;
  out_.window_end = window_end;
}

void CompactDatasetBuilder::add_torrent(const TorrentRecord& record,
                                        std::span<const IpAddress> downloaders,
                                        std::span<const SimTime> sightings) {
  TorrentRecordPod pod;
  pod.size_bytes = record.size_bytes;
  pod.published_at = record.published_at;
  pod.first_seen = record.first_seen;
  pod.observed_removed_at = record.observed_removed_at;
  pod.piece_count = record.piece_count;
  pod.title = intern(record.title);
  pod.username = intern(record.username);
  pod.textbox = intern(record.textbox);
  pod.portal_id = record.portal_id;
  pod.initial_seeders = record.initial_seeders;
  pod.initial_peers = record.initial_peers;
  pod.query_count = record.query_count;
  pod.max_concurrent = record.max_concurrent;
  pod.infohash = record.infohash.bytes;
  pod.category = static_cast<std::uint8_t>(record.category);
  pod.language = static_cast<std::uint8_t>(record.language);
  if (record.publisher_ip) {
    pod.flags |= TorrentRecordPod::kHasPublisherIp;
    pod.publisher_ip = record.publisher_ip->value();
  }
  if (record.observed_removed) pod.flags |= TorrentRecordPod::kObservedRemoved;

  pod.payload_filenames.begin = static_cast<std::uint32_t>(out_.filename_refs.size());
  for (const std::string& f : record.payload_filenames) {
    out_.filename_refs.push_back(intern(f));
  }
  pod.payload_filenames.end = static_cast<std::uint32_t>(out_.filename_refs.size());

  pod.downloaders.begin = static_cast<std::uint32_t>(out_.peer_blob.size() / 6);
  // 6-byte BEP-23 entries (net/compact layout); the dataset records
  // addresses only, so the port half is zero.
  std::string entry;
  for (const IpAddress& ip : downloaders) {
    entry.clear();
    append_compact_peer(entry, Endpoint{ip, 0});
    out_.peer_blob.insert(out_.peer_blob.end(), entry.begin(), entry.end());
  }
  pod.downloaders.end = static_cast<std::uint32_t>(out_.peer_blob.size() / 6);

  pod.sightings.begin = static_cast<std::uint32_t>(out_.sightings.size());
  out_.sightings.insert(out_.sightings.end(), sightings.begin(), sightings.end());
  pod.sightings.end = static_cast<std::uint32_t>(out_.sightings.size());

  out_.torrents.push_back(pod);
}

void CompactDatasetBuilder::add_user_page(const UserPage& page) {
  UserPagePod pod;
  pod.username = intern(page.username);
  if (page.banned) pod.flags |= UserPagePod::kBanned;
  pod.publish_times.begin = static_cast<std::uint32_t>(out_.user_publish_times.size());
  out_.user_publish_times.insert(out_.user_publish_times.end(),
                                 page.publish_times.begin(),
                                 page.publish_times.end());
  pod.publish_times.end = static_cast<std::uint32_t>(out_.user_publish_times.size());
  out_.user_pages.push_back(pod);
}

CompactDataset CompactDatasetBuilder::finish() {
  // Sorted pages make find_user a binary search and the layout independent
  // of Dataset::user_pages' hash order, so snapshots are byte-identical
  // across thread counts (the determinism requirement).
  const std::vector<char>& text = out_.text;
  std::sort(out_.user_pages.begin(), out_.user_pages.end(),
            [&text](const UserPagePod& a, const UserPagePod& b) {
              return std::string_view(text.data() + a.username.offset,
                                      a.username.length) <
                     std::string_view(text.data() + b.username.offset,
                                      b.username.length);
            });
  CompactDataset done = std::move(out_);
  out_ = CompactDataset{};
  // Discard (don't rehash) the intern index: its refs point into the text
  // arena that was just moved out, and reinserting more entries than the
  // fresh table holds would never find a free slot.
  intern_index_.assign(1024, {0, StrRef{}});
  intern_mask_ = 1023;
  interned_ = 0;
  return done;
}

// --------------------------------------------------------- conversions --

CompactDataset compact_dataset(const Dataset& dataset) {
  CompactDatasetBuilder builder;
  builder.set_header(dataset.name, dataset.style, dataset.window_start,
                     dataset.window_end);
  for (std::size_t i = 0; i < dataset.torrents.size(); ++i) {
    builder.add_torrent(dataset.torrents[i], dataset.downloaders[i],
                        dataset.publisher_sightings[i]);
  }
  for (const auto& [name, page] : dataset.user_pages) {
    builder.add_user_page(page);
  }
  return builder.finish();
}

void validate(const CompactDatasetView& view) {
  const std::size_t peer_entries = view.peer_blob.size() / 6;
  for (const TorrentRecordPod& pod : view.torrents) {
    check_str(view, pod.title, "title ref");
    check_str(view, pod.username, "username ref");
    check_str(view, pod.textbox, "textbox ref");
    check_enum(pod.category, ContentCategory::Other, "category");
    check_enum(pod.language, Language::Other, "language");
    check_span(pod.payload_filenames, view.filename_refs.size(), "filename span");
    check_span(pod.downloaders, peer_entries, "downloader span");
    check_span(pod.sightings, view.sightings.size(), "sighting span");
  }
  for (const StrRef ref : view.filename_refs) {
    check_str(view, ref, "filename ref");
  }
  for (const UserPagePod& pod : view.user_pages) {
    check_str(view, pod.username, "user-page name");
    check_span(pod.publish_times, view.user_publish_times.size(),
               "publish-times span");
  }
  check_times(view.sightings, "sighting time");
  check_times(view.user_publish_times, "publish time");
}

void write_csv(const CompactDatasetView& view, std::ostream& torrents,
               std::ostream& sightings) {
  torrents << "portal_id,infohash,title,category,username,publisher_ip,"
              "published_at,downloads,removed\n";
  sightings << "portal_id,time_seconds\n";
  for (const TorrentRecordPod& pod : view.torrents) {
    const std::optional<IpAddress> publisher_ip = view.publisher_ip(pod);
    torrents << pod.portal_id << ',' << Sha1Digest{pod.infohash}.hex() << ','
             << csv_escape(view.title(pod)) << ','
             << to_string(static_cast<ContentCategory>(pod.category)) << ','
             << csv_escape(view.username(pod)) << ','
             << (publisher_ip ? publisher_ip->to_string() : "") << ','
             << pod.published_at << ',' << view.downloader_count(pod) << ','
             << ((pod.flags & TorrentRecordPod::kObservedRemoved) != 0 ? 1 : 0)
             << '\n';
    for (const SimTime t : view.sightings_of(pod)) {
      sightings << pod.portal_id << ',' << t << '\n';
    }
  }
}

}  // namespace btpub
