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
/// `top_k` limits both breakdowns (0 = unlimited). One serial pass: the
/// view's sorted distinct-downloader list is looked up once per IP and
/// counted by IspId; the ISP rows and the country rows (an ISP has one
/// country, so a country's count is the sum of its ISPs') are rendered
/// once at the end (DESIGN.md §4.8).
DownloaderDemographics downloader_demographics(const CompactDatasetView& view,
                                               const GeoDb& geo,
                                               std::size_t top_k = 10);

/// Country breakdown of *publishers* (identified IPs), weighted by
/// published content — the supply-side counterpart.
std::vector<DemographicRow> publisher_countries(const CompactDatasetView& view,
                                                const GeoDb& geo,
                                                std::size_t top_k = 10);

}  // namespace btpub
