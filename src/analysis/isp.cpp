#include "analysis/isp.hpp"

#include <algorithm>
#include <set>
#include <unordered_map>
#include <unordered_set>

namespace btpub {

std::vector<IspShareRow> top_publisher_isps(const CompactDatasetView& view,
                                            const GeoDb& geo, std::size_t k) {
  struct Acc {
    IspType type = IspType::CommercialIsp;
    std::size_t torrents = 0;
    std::unordered_set<IpAddress> ips;
  };
  std::unordered_map<std::string, Acc> by_isp;
  std::size_t identified_torrents = 0;
  std::size_t identified_ips = 0;

  std::unordered_set<IpAddress> all_ips;
  for (const TorrentRecordPod& pod : view.torrents) {
    const auto ip = view.publisher_ip(pod);
    if (!ip) continue;
    const auto loc = geo.lookup(*ip);
    if (!loc) continue;
    ++identified_torrents;
    Acc& acc = by_isp[std::string(loc->isp_name)];
    acc.type = loc->isp_type;
    ++acc.torrents;
    acc.ips.insert(*ip);
    all_ips.insert(*ip);
  }
  identified_ips = all_ips.size();

  std::vector<IspShareRow> rows;
  rows.reserve(by_isp.size());
  for (const auto& [name, acc] : by_isp) {
    IspShareRow row;
    row.isp = name;
    row.type = acc.type;
    row.torrents = acc.torrents;
    row.publisher_ips = acc.ips.size();
    row.content_share = identified_torrents == 0
                            ? 0.0
                            : static_cast<double>(acc.torrents) /
                                  static_cast<double>(identified_torrents);
    row.publisher_share = identified_ips == 0
                              ? 0.0
                              : static_cast<double>(acc.ips.size()) /
                                    static_cast<double>(identified_ips);
    rows.push_back(std::move(row));
  }
  std::sort(rows.begin(), rows.end(), [](const IspShareRow& a, const IspShareRow& b) {
    if (a.torrents != b.torrents) return a.torrents > b.torrents;
    return a.isp < b.isp;
  });
  if (rows.size() > k) rows.resize(k);
  return rows;
}

IspFeederProfile isp_feeder_profile(const CompactDatasetView& view,
                                    const GeoDb& geo, std::string_view isp_name) {
  IspFeederProfile profile;
  profile.isp = std::string(isp_name);
  std::unordered_set<IpAddress> ips;
  std::unordered_set<std::uint16_t> prefixes;
  std::set<std::pair<std::string, std::string>> locations;
  for (const TorrentRecordPod& pod : view.torrents) {
    const auto ip = view.publisher_ip(pod);
    if (!ip) continue;
    const auto loc = geo.lookup(*ip);
    if (!loc || loc->isp_name != isp_name) continue;
    ++profile.fed_torrents;
    ips.insert(*ip);
    prefixes.insert(Prefix16(*ip).value());
    locations.emplace(std::string(loc->country), std::string(loc->city));
  }
  profile.distinct_ips = ips.size();
  profile.distinct_prefixes16 = prefixes.size();
  profile.distinct_locations = locations.size();
  return profile;
}

std::size_t consumers_from_isp(const CompactDatasetView& view, const GeoDb& geo,
                               std::string_view isp_name,
                               bool exclude_publishers) {
  const auto isp = geo.find_isp(isp_name);
  if (!isp) return 0;
  std::vector<IpAddress> publisher_ips;
  if (exclude_publishers) {
    for (const TorrentRecordPod& pod : view.torrents) {
      if (const auto ip = view.publisher_ip(pod)) publisher_ips.push_back(*ip);
    }
    std::sort(publisher_ips.begin(), publisher_ips.end());
  }
  std::size_t consumers = 0;
  for (const IpAddress ip : view.distinct_downloader_ips()) {
    if (std::binary_search(publisher_ips.begin(), publisher_ips.end(), ip)) {
      continue;
    }
    const auto loc = geo.lookup(ip);
    consumers += loc && loc->isp == *isp;
  }
  return consumers;
}

TopHostingShare top_hosting_share(const IdentityAnalysis& identity,
                                  const GeoDb& geo, std::string_view named_isp,
                                  std::size_t top_n) {
  TopHostingShare share;
  const auto& usernames = identity.usernames();
  share.considered = std::min(top_n, usernames.size());
  for (std::size_t i = 0; i < share.considered; ++i) {
    bool hosting = false, named = false;
    std::size_t host_votes = 0, total_votes = 0;
    for (const IpAddress& ip : usernames[i].ips) {
      const auto loc = geo.lookup(ip);
      if (!loc) continue;
      ++total_votes;
      if (loc->isp_type == IspType::HostingProvider) {
        ++host_votes;
        if (loc->isp_name == named_isp) named = true;
      }
    }
    hosting = total_votes > 0 && host_votes * 2 >= total_votes;
    if (hosting) {
      ++share.at_hosting;
      if (named) ++share.at_named_isp;
    }
  }
  return share;
}

}  // namespace btpub
