#include "analysis/demographics.hpp"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "util/parallel.hpp"

namespace btpub {
namespace {

std::vector<DemographicRow> to_rows(
    const std::unordered_map<std::string, std::size_t>& counts,
    std::size_t total, std::size_t top_k) {
  std::vector<DemographicRow> rows;
  rows.reserve(counts.size());
  for (const auto& [label, count] : counts) {
    DemographicRow row;
    row.label = label;
    row.downloaders = count;
    row.share = total ? static_cast<double>(count) / static_cast<double>(total)
                      : 0.0;
    rows.push_back(std::move(row));
  }
  std::sort(rows.begin(), rows.end(),
            [](const DemographicRow& a, const DemographicRow& b) {
              if (a.downloaders != b.downloaders) {
                return a.downloaders > b.downloaders;
              }
              return a.label < b.label;
            });
  if (top_k > 0 && rows.size() > top_k) rows.resize(top_k);
  return rows;
}

/// Per-shard geo aggregation over a slice of the distinct-IP list.
struct GeoCounts {
  std::size_t located = 0;
  std::unordered_map<std::string, std::size_t> by_country;
  std::unordered_map<std::string, std::size_t> by_isp;
};

}  // namespace

/// Two sharded passes: the dedup scan emits each shard's locally-new IPs
/// (merged into the global distinct set in span order), then the geo
/// lookups fan out over the distinct list and merge by commutative sums —
/// both byte-identical to the serial single pass.
DownloaderDemographics downloader_demographics(const CompactDatasetView& view,
                                               const GeoDb& geo,
                                               std::size_t top_k,
                                               std::size_t threads) {
  DownloaderDemographics demo;

  auto shards = sharded_scan(
      view.torrents.size(), threads, [&](std::size_t begin, std::size_t end) {
        std::unordered_set<IpAddress> local_seen;
        std::vector<IpAddress> local_new;
        for (std::size_t t = begin; t < end; ++t) {
          const TorrentRecordPod& pod = view.torrents[t];
          for (std::uint32_t i = 0; i < pod.downloaders.size(); ++i) {
            const IpAddress ip = view.downloader_ip(pod, i);
            if (local_seen.insert(ip).second) local_new.push_back(ip);
          }
        }
        return local_new;
      });

  std::unordered_set<IpAddress> seen;
  std::vector<IpAddress> distinct;
  for (const auto& shard : shards) {
    for (const IpAddress& ip : shard) {
      if (seen.insert(ip).second) distinct.push_back(ip);
    }
  }
  demo.total_distinct_ips = seen.size();

  auto counts = sharded_scan(
      distinct.size(), threads, [&](std::size_t begin, std::size_t end) {
        GeoCounts local;
        for (std::size_t i = begin; i < end; ++i) {
          const auto loc = geo.lookup(distinct[i]);
          if (!loc) continue;
          ++local.located;
          ++local.by_country[std::string(loc->country)];
          ++local.by_isp[std::string(loc->isp_name)];
        }
        return local;
      });
  std::unordered_map<std::string, std::size_t> by_country;
  std::unordered_map<std::string, std::size_t> by_isp;
  for (const GeoCounts& shard : counts) {
    demo.located_ips += shard.located;
    for (const auto& [label, count] : shard.by_country) by_country[label] += count;
    for (const auto& [label, count] : shard.by_isp) by_isp[label] += count;
  }
  demo.by_country = to_rows(by_country, demo.located_ips, top_k);
  demo.by_isp = to_rows(by_isp, demo.located_ips, top_k);
  return demo;
}

std::vector<DemographicRow> publisher_countries(const CompactDatasetView& view,
                                                const GeoDb& geo,
                                                std::size_t top_k) {
  std::unordered_map<std::string, std::size_t> counts;
  std::size_t total = 0;
  for (const TorrentRecordPod& pod : view.torrents) {
    const auto ip = view.publisher_ip(pod);
    if (!ip) continue;
    const auto loc = geo.lookup(*ip);
    if (!loc) continue;
    ++counts[std::string(loc->country)];
    ++total;
  }
  return to_rows(counts, total, top_k);
}

}  // namespace btpub
