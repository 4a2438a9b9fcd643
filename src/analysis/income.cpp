#include "analysis/income.hpp"

#include <unordered_set>

namespace btpub {

std::vector<IncomeRow> income_table(const ClassificationResult& classification,
                                    const WebsiteDirectory& websites,
                                    const AppraisalPanel& panel) {
  std::vector<IncomeRow> rows;
  for (const BusinessClass cls : {BusinessClass::BtPortal, BusinessClass::OtherWeb}) {
    std::vector<double> values, incomes, visits;
    for (const PublisherProfile* profile : classification.of_class(cls)) {
      const auto estimate = panel.average(websites, profile->domain);
      if (!estimate) continue;
      values.push_back(estimate->value_usd);
      incomes.push_back(estimate->daily_income_usd);
      visits.push_back(estimate->daily_visits);
    }
    IncomeRow row;
    row.cls = cls;
    row.sites = values.size();
    row.value_usd = summary_row(values);
    row.daily_income_usd = summary_row(incomes);
    row.daily_visits = summary_row(visits);
    rows.push_back(std::move(row));
  }
  return rows;
}

MoneyFlows money_flows(const CompactDatasetView& view,
                       const ClassificationResult& classification,
                       const WebsiteDirectory& websites,
                       const AppraisalPanel& panel, const GeoDb& geo,
                       std::string_view hosting_isp,
                       double server_price_eur_month) {
  MoneyFlows flows;
  std::unordered_set<std::string> networks;
  for (const PublisherProfile& profile : classification.profiles) {
    if (profile.domain.empty()) continue;
    const auto estimate = panel.average(websites, profile.domain);
    if (estimate) flows.publishers_income_per_day_usd += estimate->daily_income_usd;
    if (profile.ads) ++flows.publishers_with_ads;
    for (const std::string& network : profile.ad_networks) {
      networks.insert(network);
    }
  }
  flows.ad_networks = networks.size();

  // §6: hosting income from publisher servers at one provider, counted
  // over every identified publisher address in the dataset.
  std::unordered_set<IpAddress> servers;
  for (const TorrentRecordPod& pod : view.torrents) {
    const auto ip = view.publisher_ip(pod);
    if (!ip) continue;
    const auto loc = geo.lookup(*ip);
    if (loc && loc->isp_name == hosting_isp) servers.insert(*ip);
  }
  flows.hosting_servers = servers.size();
  flows.hosting_income_per_month_eur =
      static_cast<double>(servers.size()) * server_price_eur_month;
  return flows;
}

}  // namespace btpub
