#include "analysis/contribution.hpp"

#include <unordered_map>

namespace btpub {

ContributionCurve contribution_curve(const IdentityAnalysis& identity,
                                     std::span<const double> top_percents) {
  ContributionCurve curve;
  std::vector<double> contributions;
  if (!identity.usernames().empty()) {
    contributions.reserve(identity.usernames().size());
    for (const UsernameStats& stats : identity.usernames()) {
      contributions.push_back(static_cast<double>(stats.content_count));
    }
  } else {
    // mn08: publishers are identified by IP address only.
    contributions.reserve(identity.ips().size());
    for (const IpStats& stats : identity.ips()) {
      contributions.push_back(static_cast<double>(stats.content_count));
    }
  }
  curve.publishers = contributions.size();
  curve.contents = identity.total_content();
  curve.points = top_share_curve(contributions, top_percents);
  curve.gini = gini(contributions);
  return curve;
}

TopConsumptionStats top_publisher_consumption(const CompactDatasetView& view,
                                              const IdentityAnalysis& identity,
                                              std::size_t top_n) {
  // Count how often each top publisher IP shows up as a downloader of
  // *other* torrents.
  TopConsumptionStats stats;
  stats.considered = std::min(top_n, identity.ips().size());
  std::unordered_map<IpAddress, std::size_t> downloads;
  for (std::size_t i = 0; i < stats.considered; ++i) {
    downloads.emplace(identity.ips()[i].ip, 0);
  }
  for (const TorrentRecordPod& pod : view.torrents) {
    for (std::uint32_t i = 0; i < pod.downloaders.size(); ++i) {
      const auto it = downloads.find(view.downloader_ip(pod, i));
      if (it != downloads.end()) ++it->second;
    }
  }
  for (std::size_t i = 0; i < stats.considered; ++i) {
    const std::size_t count = downloads[identity.ips()[i].ip];
    if (count == 0) ++stats.zero_downloads;
    if (count < 5) ++stats.under_five_downloads;
  }
  return stats;
}

}  // namespace btpub
