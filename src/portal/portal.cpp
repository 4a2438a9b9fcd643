#include "portal/portal.hpp"

#include <algorithm>
#include <stdexcept>

namespace btpub {

TorrentId Portal::publish(PublishRequest request, SimTime now) {
  if (request.username.empty()) {
    throw std::invalid_argument("Portal::publish: empty username");
  }
  if (now < last_publish_time_) {
    throw std::invalid_argument("Portal::publish: time went backwards");
  }
  last_publish_time_ = now;
  const TorrentId id = static_cast<TorrentId>(listings_.size());
  Listing l;
  l.page.id = id;
  l.page.title = std::move(request.title);
  l.page.category = request.category;
  l.page.language = request.language;
  l.page.username = request.username;
  l.page.textbox = std::move(request.textbox);
  l.page.size_bytes = request.size_bytes;
  l.page.published_at = now;
  l.torrent = std::move(request.torrent);
  l.infohash = request.infohash;
  l.payload = request.payload;
  listings_.push_back(std::move(l));
  // After any later history (record_history), so the times stay ascending.
  auto& times = users_[request.username].publish_times;
  times.insert(std::upper_bound(times.begin(), times.end(), now), now);
  return id;
}

void Portal::record_history(std::string_view username,
                            std::span<const SimTime> times) {
  if (!std::is_sorted(times.begin(), times.end())) {
    throw std::invalid_argument("Portal::record_history: times not ascending");
  }
  auto& v = users_[std::string(username)].publish_times;
  const std::size_t old_size = v.size();
  v.insert(v.end(), times.begin(), times.end());
  std::inplace_merge(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(old_size),
                     v.end());
}

std::vector<RssItem> Portal::rss_since(TorrentId last_seen, SimTime now,
                                       std::size_t limit) const {
  std::vector<RssItem> items;
  const std::size_t start =
      last_seen == kInvalidTorrent ? 0 : static_cast<std::size_t>(last_seen) + 1;
  for (std::size_t i = start; i < listings_.size() && items.size() < limit; ++i) {
    const Listing& l = listings_[i];
    if (l.page.published_at > now) break;  // not yet published
    if (removed_by(l, now)) continue;
    RssItem item;
    item.id = static_cast<TorrentId>(i);
    item.title = l.page.title;
    item.category = l.page.category;
    item.username = l.page.username;
    item.size_bytes = l.page.size_bytes;
    item.published_at = l.page.published_at;
    items.push_back(std::move(item));
  }
  return items;
}

TorrentId Portal::newest_id() const noexcept {
  return listings_.empty() ? kInvalidTorrent
                           : static_cast<TorrentId>(listings_.size() - 1);
}

std::optional<ContentPage> Portal::page(TorrentId id, SimTime now) const {
  if (id >= listings_.size()) return std::nullopt;
  const Listing& l = listings_[id];
  if (l.page.published_at > now) return std::nullopt;
  ContentPage page = l.page;
  if (removed_by(l, now)) {
    page.removed = true;
    page.textbox.clear();  // tombstone
  }
  return page;
}

std::optional<std::string> Portal::fetch_torrent(TorrentId id, SimTime now) const {
  if (id >= listings_.size()) return std::nullopt;
  const Listing& l = listings_[id];
  if (l.page.published_at > now || removed_by(l, now)) return std::nullopt;
  return l.torrent.bytes();
}

std::optional<PayloadKind> Portal::download_payload(TorrentId id,
                                                    SimTime now) const {
  if (id >= listings_.size()) return std::nullopt;
  const Listing& l = listings_[id];
  if (l.page.published_at > now || removed_by(l, now)) return std::nullopt;
  return l.payload;
}

void Portal::moderate_remove(TorrentId id, SimTime at) {
  if (id >= listings_.size()) return;
  Listing& l = listings_[id];
  if (l.removed_at >= 0 && l.removed_at <= at) return;
  l.removed_at = at;
  auto& user = users_[l.page.username];
  if (user.banned_at < 0 || user.banned_at > at) user.banned_at = at;
}

UserPage Portal::user_page(std::string_view username, SimTime now) const {
  UserPage page;
  page.username = std::string(username);
  const auto it = users_.find(page.username);
  if (it != users_.end()) {
    const std::vector<SimTime>& times = it->second.publish_times;  // ascending
    page.publish_times.assign(times.begin(),
                              std::upper_bound(times.begin(), times.end(), now));
    page.banned = it->second.banned_at >= 0 && now >= it->second.banned_at;
  }
  return page;
}

}  // namespace btpub
