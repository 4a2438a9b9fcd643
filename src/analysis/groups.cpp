#include "analysis/groups.hpp"

#include <algorithm>
#include <string_view>

namespace btpub {

std::string_view to_string(TargetGroup g) {
  switch (g) {
    case TargetGroup::All:
      return "All";
    case TargetGroup::Fake:
      return "Fake";
    case TargetGroup::Top:
      return "Top";
    case TargetGroup::TopHP:
      return "Top-HP";
    case TargetGroup::TopCI:
      return "Top-CI";
  }
  return "?";
}

IdentityAnalysis::IdentityAnalysis(const CompactDatasetView& view,
                                   const GeoDb& geo, std::size_t top_n,
                                   FakeDetectionConfig fake_config)
    : geo_(&geo), top_n_(top_n) {
  build_tables(view);
  detect_fakes(fake_config);
  build_top(geo, top_n);
}

void IdentityAnalysis::build_tables(const CompactDatasetView& view) {
  // Keys are views into the text arena, which outlives the scan.
  std::unordered_map<std::string_view, std::size_t> uindex;
  std::unordered_map<IpAddress, std::size_t> ipindex;
  std::unordered_map<std::string_view, std::unordered_set<std::uint32_t>> user_ips;
  std::unordered_map<IpAddress, std::unordered_set<std::string_view>> ip_users;
  for (std::size_t i = 0; i < view.torrents.size(); ++i) {
    const TorrentRecordPod& pod = view.torrents[i];
    const std::string_view username = view.username(pod);
    const std::optional<IpAddress> ip = view.publisher_ip(pod);
    const std::size_t downloads = pod.downloaders.size();
    ++total_content_;
    total_downloads_ += downloads;

    if (!username.empty()) {
      auto [it, inserted] = uindex.try_emplace(username, usernames_.size());
      if (inserted) {
        UsernameStats stats;
        stats.username = std::string(username);
        const UserPagePod* page = view.find_user(username);
        stats.banned = page != nullptr && (page->flags & UserPagePod::kBanned) != 0;
        usernames_.push_back(std::move(stats));
      }
      UsernameStats& stats = usernames_[it->second];
      stats.torrents.push_back(i);
      ++stats.content_count;
      stats.download_count += downloads;
      if (ip && user_ips[username].insert(ip->value()).second) {
        stats.ips.push_back(*ip);
      }
    }

    if (ip) {
      auto [it, inserted] = ipindex.try_emplace(*ip, ips_.size());
      if (inserted) {
        IpStats stats;
        stats.ip = *ip;
        ips_.push_back(std::move(stats));
      }
      IpStats& stats = ips_[it->second];
      stats.torrents.push_back(i);
      ++stats.content_count;
      if (!username.empty() && ip_users[*ip].insert(username).second) {
        stats.usernames.emplace_back(username);
      }
    }
  }

  // Moderation bans arrive after a username's torrents; count them per IP.
  std::unordered_map<std::string_view, bool> banned;
  banned.reserve(usernames_.size());
  for (const UsernameStats& stats : usernames_) {
    banned.emplace(stats.username, stats.banned);
  }
  for (IpStats& stats : ips_) {
    for (const std::string& name : stats.usernames) {
      const auto it = banned.find(name);
      if (it != banned.end() && it->second) ++stats.banned_usernames;
    }
  }

  auto by_content_desc = [](const auto& a, const auto& b) {
    if (a.content_count != b.content_count) return a.content_count > b.content_count;
    // torrents.front() — the key's first torrent index — is unique per
    // entry, so this is a total order and the sort is deterministic.
    return a.torrents.front() < b.torrents.front();
  };
  std::sort(usernames_.begin(), usernames_.end(), by_content_desc);
  std::sort(ips_.begin(), ips_.end(), by_content_desc);
  for (std::size_t i = 0; i < usernames_.size(); ++i) {
    username_index_.emplace(usernames_[i].username, i);
  }
}

void IdentityAnalysis::detect_fakes(const FakeDetectionConfig& config) {
  for (const IpStats& stats : ips_) {
    if (stats.usernames.size() < config.min_usernames_per_ip) continue;
    const double banned_fraction =
        static_cast<double>(stats.banned_usernames) /
        static_cast<double>(stats.usernames.size());
    if (banned_fraction < config.min_banned_fraction) continue;
    fake_ips_.insert(stats.ip);
    for (const std::string& name : stats.usernames) {
      fake_usernames_.insert(name);
    }
  }
  // A banned username is a fake publisher even when its farm IP was never
  // identified (footnote 3: the ban is the portal's fake signal).
  for (const UsernameStats& stats : usernames_) {
    if (stats.banned) fake_usernames_.insert(stats.username);
  }
}

void IdentityAnalysis::build_top(const GeoDb& geo, std::size_t top_n) {
  const std::size_t cut = std::min(top_n, usernames_.size());
  for (std::size_t i = 0; i < cut; ++i) {
    const UsernameStats& stats = usernames_[i];
    if (fake_usernames_.contains(stats.username)) {
      ++compromised_in_top_;
      continue;
    }
    top_.push_back(stats.username);
    top_set_.insert(stats.username);
    // Hosting vs commercial: majority ISP type over identified IPs.
    std::size_t hosting = 0, commercial = 0;
    for (const IpAddress& ip : stats.ips) {
      const auto loc = geo.lookup(ip);
      if (!loc) continue;
      if (loc->isp_type == IspType::HostingProvider) {
        ++hosting;
      } else {
        ++commercial;
      }
    }
    if (hosting == 0 && commercial == 0) {
      // No identified IP: indistinguishable; the paper's HP/CI break-down
      // only covers publishers with located addresses. Default to CI (a
      // hosted box would have been reachable and identified).
      top_ci_.insert(stats.username);
    } else if (hosting >= commercial) {
      top_hp_.insert(stats.username);
    } else {
      top_ci_.insert(stats.username);
    }
  }
}

const UsernameStats* IdentityAnalysis::find_username(std::string_view name) const {
  const auto it = username_index_.find(std::string(name));
  return it == username_index_.end() ? nullptr : &usernames_[it->second];
}

bool IdentityAnalysis::is_fake(std::string_view username) const {
  return fake_usernames_.contains(std::string(username));
}

bool IdentityAnalysis::in_group(std::string_view username, TargetGroup g) const {
  const std::string name(username);
  switch (g) {
    case TargetGroup::All:
      return username_index_.contains(name);
    case TargetGroup::Fake:
      return fake_usernames_.contains(name);
    case TargetGroup::Top:
      return top_set_.contains(name);
    case TargetGroup::TopHP:
      return top_hp_.contains(name);
    case TargetGroup::TopCI:
      return top_ci_.contains(name);
  }
  return false;
}

std::vector<const UsernameStats*> IdentityAnalysis::members(TargetGroup g) const {
  std::vector<const UsernameStats*> out;
  for (const UsernameStats& stats : usernames_) {
    if (in_group(stats.username, g)) out.push_back(&stats);
  }
  return out;
}

IdentityAnalysis::TopIpBreakdown IdentityAnalysis::top_ip_breakdown() const {
  TopIpBreakdown breakdown;
  breakdown.considered = std::min(top_n_, ips_.size());
  for (std::size_t i = 0; i < breakdown.considered; ++i) {
    if (ips_[i].usernames.size() > 1) {
      ++breakdown.multi_username;
    } else {
      ++breakdown.single_username;
    }
  }
  return breakdown;
}

IdentityAnalysis::Share IdentityAnalysis::share_of(TargetGroup g) const {
  Share share;
  if (total_content_ == 0) return share;
  std::size_t content = 0, downloads = 0;
  for (const UsernameStats* stats : members(g)) {
    content += stats->content_count;
    downloads += stats->download_count;
  }
  share.content = static_cast<double>(content) / static_cast<double>(total_content_);
  share.downloads = total_downloads_ == 0
                        ? 0.0
                        : static_cast<double>(downloads) /
                              static_cast<double>(total_downloads_);
  return share;
}

}  // namespace btpub
