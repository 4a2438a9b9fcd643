// longitudinal.hpp — the §5.2 longitudinal study (Table 4): publisher
// lifetime and average publishing rate per business class, read off the
// portal's per-user history pages snapshotted by the crawler.
#pragma once

#include <vector>

#include "analysis/classify.hpp"
#include "util/stats.hpp"

namespace btpub {

/// One publisher's longitudinal facts.
struct PublisherHistory {
  std::string username;
  BusinessClass cls = BusinessClass::Altruistic;
  double lifetime_days = 0.0;     // first to last appearance
  double publish_rate = 0.0;      // contents per day over the lifetime
  std::size_t total_published = 0;
};

/// One Table-4 row.
struct LongitudinalRow {
  BusinessClass cls = BusinessClass::Altruistic;
  SummaryRow lifetime_days;   // min/median/avg/max over publishers
  SummaryRow publish_rate;
  std::size_t publishers = 0;
};

/// Per-publisher histories for all classified top publishers. Publishers
/// whose user page is missing (e.g. already purged) are skipped.
std::vector<PublisherHistory> publisher_histories(
    const CompactDatasetView& view, const ClassificationResult& classification);

/// The Table-4 rows (BT Portals / Other Web Sites / Altruistic).
std::vector<LongitudinalRow> longitudinal_table(
    const CompactDatasetView& view, const ClassificationResult& classification);

}  // namespace btpub
