// contribution.hpp — contribution-skew analysis (paper §3.1, Figure 1).
#pragma once

#include <vector>

#include "analysis/groups.hpp"
#include "util/stats.hpp"

namespace btpub {

/// The Figure-1 curve: share of published content held by the top x% of
/// publishers, by username (or by IP for username-less datasets).
struct ContributionCurve {
  std::vector<LorenzPoint> points;
  double gini = 0.0;
  std::size_t publishers = 0;
  std::size_t contents = 0;
};

/// Curve over username contributions (mn08 falls back to IP when the
/// dataset carries no usernames).
ContributionCurve contribution_curve(const IdentityAnalysis& identity,
                                     std::span<const double> top_percents);

/// §3.1's side observation: how many of the top-N publisher *IPs* also
/// appear as content consumers, and how much they download.
struct TopConsumptionStats {
  std::size_t considered = 0;
  std::size_t zero_downloads = 0;      // paper: ~40%
  std::size_t under_five_downloads = 0;  // paper: ~80% (includes zeroes)
};
/// Scans every downloader entry, decoded from the BEP-23 peer blob, for
/// top-publisher IPs.
TopConsumptionStats top_publisher_consumption(const CompactDatasetView& view,
                                              const IdentityAnalysis& identity,
                                              std::size_t top_n = 100);

}  // namespace btpub
