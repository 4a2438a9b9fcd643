// isp.hpp — ISP-level analyses (paper §3.2, Tables 2 and 3).
#pragma once

#include <string>
#include <vector>

#include "analysis/groups.hpp"
#include "geo/geo_db.hpp"

namespace btpub {

/// One row of Table 2.
struct IspShareRow {
  std::string isp;
  IspType type = IspType::CommercialIsp;
  /// Share of (IP-identified) published content fed from this ISP.
  double content_share = 0.0;
  /// Share of identified publisher IPs located at this ISP.
  double publisher_share = 0.0;
  std::size_t torrents = 0;
  std::size_t publisher_ips = 0;
};

/// Table 2: the top-k ISPs by content fed, over torrents with an
/// identified publisher IP.
std::vector<IspShareRow> top_publisher_isps(const CompactDatasetView& view,
                                            const GeoDb& geo, std::size_t k = 10);

/// One row of Table 3 (per-ISP feeder profile).
struct IspFeederProfile {
  std::string isp;
  std::size_t fed_torrents = 0;
  std::size_t distinct_ips = 0;
  std::size_t distinct_prefixes16 = 0;
  std::size_t distinct_locations = 0;  // (country, city) pairs
};

IspFeederProfile isp_feeder_profile(const CompactDatasetView& view,
                                    const GeoDb& geo, std::string_view isp_name);

/// §3.2's closing check: how many *consumer* (downloader) IPs come from a
/// given ISP across the whole dataset (the paper found no OVH consumers).
/// Addresses known to belong to publishers (identified in any torrent) are
/// excluded when `exclude_publishers` is set — presence of a publisher's
/// own box in a swarm it seeds is not consumption. An ISP name the GeoDb
/// does not know has no consumers.
std::size_t consumers_from_isp(const CompactDatasetView& view, const GeoDb& geo,
                               std::string_view isp_name,
                               bool exclude_publishers = true);

/// Fraction of the top-N publishers (usernames) whose identified addresses
/// are at hosting providers, and the share of those at one named ISP
/// (the paper: 42% at hosting services, half of them at OVH).
struct TopHostingShare {
  std::size_t considered = 0;
  std::size_t at_hosting = 0;
  std::size_t at_named_isp = 0;
};
TopHostingShare top_hosting_share(const IdentityAnalysis& identity,
                                  const GeoDb& geo, std::string_view named_isp,
                                  std::size_t top_n = 100);

}  // namespace btpub
