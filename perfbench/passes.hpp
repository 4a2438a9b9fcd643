// passes.hpp — the paper's analysis passes over a compact dataset view,
// as both batch workloads (simulate_quick, analysis_1m) run them.
#pragma once

#include <memory>
#include <vector>

#include "analysis/classify.hpp"
#include "analysis/contribution.hpp"
#include "analysis/demographics.hpp"
#include "analysis/groups.hpp"
#include "analysis/popularity.hpp"
#include "analysis/session.hpp"
#include "common.hpp"
#include "crawler/compact_dataset.hpp"
#include "geo/geo_db.hpp"
#include "websim/website.hpp"

namespace perfbench {

struct PassResults {
  std::unique_ptr<btpub::IdentityAnalysis> identity;
  btpub::ClassificationResult classification;
  std::vector<btpub::SeedingBox> seeding;
  btpub::DownloaderDemographics demographics;
  btpub::TopConsumptionStats consumption;
  btpub::ContributionCurve contribution;
  std::vector<btpub::PopularityBox> popularity;
};

/// Runs identity, classify (top 100, every torrent of each), seeding
/// panel, demographics, consumption, and the contribution/popularity
/// tables, each at its default thread count and under its own span.
/// Records analysis.distinct_ips, geo.lookups and geo.located_ratio.
PassResults run_paper_passes(const btpub::CompactDatasetView& view,
                             const btpub::GeoDb& geo,
                             const btpub::WebsiteDirectory& websites,
                             std::uint64_t seed, Tracer& tracer);

/// Folds every field of every pass result into `d`.
void digest_passes(Digest& d, const PassResults& results);

}  // namespace perfbench
