// demographics.hpp — downloader demographics (paper §2: every downloader
// IP is mapped through the GeoIP database to its ISP and location). The
// paper uses this mapping for the consumer-side checks of §3.2; this
// module generalises it into country/ISP breakdowns of the downloading
// population — the demographic view earlier BitTorrent studies (Zhang et
// al., Pouwelse et al.) report.
#pragma once

#include <string>
#include <vector>

#include "crawler/compact_dataset.hpp"
#include "geo/geo_db.hpp"

namespace btpub {

struct DemographicRow {
  std::string label;           // country code or ISP name
  std::size_t downloaders = 0; // distinct IPs
  double share = 0.0;          // of all located downloader IPs
};

struct DownloaderDemographics {
  std::size_t total_distinct_ips = 0;
  std::size_t located_ips = 0;
  std::vector<DemographicRow> by_country;  // descending, top-k
  std::vector<DemographicRow> by_isp;      // descending, top-k
};

/// Maps every distinct downloader IP and aggregates by country and ISP.
/// `top_k` limits both breakdowns (0 = unlimited). `threads` shards both
/// the per-torrent dedup scan and the geo lookups over a worker pool (0 =
/// hardware concurrency); shard results merge in span order / by
/// commutative sums, so the breakdown is byte-identical to serial at any
/// thread count. This is the one analysis pass whose threads paid on a
/// 4-core box (DESIGN.md §4.8).
DownloaderDemographics downloader_demographics(const CompactDatasetView& view,
                                               const GeoDb& geo,
                                               std::size_t top_k = 10,
                                               std::size_t threads = 1);

/// Country breakdown of *publishers* (identified IPs), weighted by
/// published content — the supply-side counterpart.
std::vector<DemographicRow> publisher_countries(const CompactDatasetView& view,
                                                const GeoDb& geo,
                                                std::size_t top_k = 10);

}  // namespace btpub
