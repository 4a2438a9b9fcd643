#include "analysis/demographics.hpp"

#include <algorithm>
#include <map>

namespace btpub {
namespace {

/// Fills in each row's share of `total`, orders by count (ties by label)
/// and keeps the top k.
std::vector<DemographicRow> ranked(std::vector<DemographicRow> rows,
                                   std::size_t total, std::size_t top_k) {
  for (DemographicRow& row : rows) {
    row.share = total ? static_cast<double>(row.downloaders) /
                            static_cast<double>(total)
                      : 0.0;
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

/// Per-ISP counts (indexed by IspId) rendered as ISP rows.
std::vector<DemographicRow> isp_rows(const GeoDb& geo,
                                     const std::vector<std::size_t>& per_isp) {
  std::vector<DemographicRow> rows;
  for (IspId id = 0; id < per_isp.size(); ++id) {
    if (per_isp[id] > 0) rows.push_back({geo.isp(id).name, per_isp[id], 0.0});
  }
  return rows;
}

/// Per-ISP counts folded into country rows: each ISP has one country.
std::vector<DemographicRow> country_rows(
    const GeoDb& geo, const std::vector<std::size_t>& per_isp) {
  std::map<std::string_view, std::size_t> by_country;
  for (IspId id = 0; id < per_isp.size(); ++id) {
    if (per_isp[id] > 0) by_country[geo.isp(id).country] += per_isp[id];
  }
  std::vector<DemographicRow> rows;
  rows.reserve(by_country.size());
  for (const auto& [country, count] : by_country) {
    rows.push_back({std::string(country), count, 0.0});
  }
  return rows;
}

}  // namespace

DownloaderDemographics downloader_demographics(const CompactDatasetView& view,
                                               const GeoDb& geo,
                                               std::size_t top_k) {
  const std::vector<IpAddress> distinct = view.distinct_downloader_ips();
  DownloaderDemographics demo;
  demo.total_distinct_ips = distinct.size();
  std::vector<std::size_t> per_isp(geo.isp_count());
  for (const IpAddress ip : distinct) {
    const auto loc = geo.lookup(ip);
    if (!loc) continue;
    ++per_isp[loc->isp];
    ++demo.located_ips;
  }
  demo.by_country = ranked(country_rows(geo, per_isp), demo.located_ips, top_k);
  demo.by_isp = ranked(isp_rows(geo, per_isp), demo.located_ips, top_k);
  return demo;
}

std::vector<DemographicRow> publisher_countries(const CompactDatasetView& view,
                                                const GeoDb& geo,
                                                std::size_t top_k) {
  std::vector<std::size_t> per_isp(geo.isp_count());
  std::size_t total = 0;
  for (const TorrentRecordPod& pod : view.torrents) {
    const auto ip = view.publisher_ip(pod);
    if (!ip) continue;
    const auto loc = geo.lookup(*ip);
    if (!loc) continue;
    ++per_isp[loc->isp];
    ++total;
  }
  return ranked(country_rows(geo, per_isp), total, top_k);
}

}  // namespace btpub
