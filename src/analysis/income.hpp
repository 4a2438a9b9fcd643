// income.hpp — publisher-income estimation (paper §5.3, Table 5) and the
// quantified business-model money flows (§6, Figure 5).
#pragma once

#include <vector>

#include "analysis/classify.hpp"
#include "geo/geo_db.hpp"
#include "util/stats.hpp"
#include "websim/appraisal.hpp"

namespace btpub {

/// One Table-5 row: cross-service averaged estimates summarised over the
/// publishers of one profit-driven class.
struct IncomeRow {
  BusinessClass cls = BusinessClass::BtPortal;
  SummaryRow value_usd;        // min/median/avg/max across publishers
  SummaryRow daily_income_usd;
  SummaryRow daily_visits;
  std::size_t sites = 0;
};

/// Table 5 (BT Portals and Other Web Sites rows).
std::vector<IncomeRow> income_table(const ClassificationResult& classification,
                                    const WebsiteDirectory& websites,
                                    const AppraisalPanel& panel);

/// Figure 5 / §6: estimated money flows between the ecosystem's players.
struct MoneyFlows {
  /// Sum of estimated daily ad income over all profit-driven publishers.
  double publishers_income_per_day_usd = 0.0;
  /// Distinct publisher servers found at the named hosting provider.
  std::size_t hosting_servers = 0;
  /// §6's estimate: servers x monthly server price.
  double hosting_income_per_month_eur = 0.0;
  /// Count of publishers whose sites post third-party ads.
  std::size_t publishers_with_ads = 0;
  /// Distinct ad networks observed in header exchanges.
  std::size_t ad_networks = 0;
};

MoneyFlows money_flows(const CompactDatasetView& view,
                       const ClassificationResult& classification,
                       const WebsiteDirectory& websites,
                       const AppraisalPanel& panel, const GeoDb& geo,
                       std::string_view hosting_isp = "OVH",
                       double server_price_eur_month = 300.0);

}  // namespace btpub
