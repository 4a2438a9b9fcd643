// income_study — "altruistic or profit-driven?" end to end: classify the
// top publishers by business profile (§5.1), inspect the promotion channels
// and HTTP ad-network exchanges, estimate site economics with the
// six-service appraisal panel (§5.3), and total the ecosystem money flows
// (§6).
//
// Build & run:   ./build/examples/income_study [seed]
#include <cstdio>
#include <cstdlib>

#include "analysis/classify.hpp"
#include "analysis/income.hpp"
#include "core/ecosystem.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

using namespace btpub;

int main(int argc, char** argv) {
  const std::uint64_t seed =
      argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 5;

  Ecosystem ecosystem(ScenarioConfig::quick(seed));
  ecosystem.build();
  const CompactDataset dataset = compact_dataset(ecosystem.crawl());
  const CompactDatasetView view = dataset.view();
  const IdentityAnalysis identity(view, ecosystem.geo(), 40);
  Rng rng(seed);
  const auto classification =
      classify_top_publishers(view, identity, ecosystem.websites(), 5, rng);

  // --- Per-publisher profiles. ---
  AsciiTable profiles("Top publishers, classified");
  profiles.header({"username", "class", "promoting URL", "channels",
                   "monetisation", "content", "downloads"});
  for (const PublisherProfile& p : classification.profiles) {
    std::string channels;
    if (p.in_textbox) channels += "textbox ";
    if (p.in_filename) channels += "filename ";
    if (p.in_payload) channels += "payload ";
    if (channels.empty()) channels += '-';
    std::string money;
    if (p.ads) money += "ads ";
    if (p.donations) money += "donations ";
    if (p.vip) money += "vip ";
    if (money.empty()) money += '-';
    profiles.row({p.username, std::string(to_string(p.cls)),
                  p.domain.empty() ? "-" : p.domain, channels, money,
                  std::to_string(p.content_count),
                  std::to_string(p.download_count)});
  }
  profiles.print();

  // --- HTTP header inspection for one promoting site. ---
  for (const PublisherProfile& p : classification.profiles) {
    if (p.domain.empty() || p.ad_networks.empty()) continue;
    std::printf("HTTP exchange with http://www.%s/ (ad-network detection):\n",
                p.domain.c_str());
    for (const HttpHeader& header :
         ecosystem.websites().http_exchange(p.domain)) {
      std::printf("  %s: %s\n", header.name.c_str(), header.value.c_str());
    }
    std::printf("\n");
    break;
  }

  // --- Economics. ---
  AsciiTable incomes("Estimated site economics (six-service panel average)");
  incomes.header({"class", "sites", "median value", "median income/day",
                  "median visits/day"});
  for (const IncomeRow& row : income_table(classification, ecosystem.websites(),
                                           ecosystem.appraisal_panel())) {
    std::string value = "$";
    value += humanize(row.value_usd.median);
    std::string income = "$";
    income += humanize(row.daily_income_usd.median);
    incomes.row({std::string(to_string(row.cls)), std::to_string(row.sites),
                 value, income, humanize(row.daily_visits.median)});
  }
  incomes.print();

  const MoneyFlows flows =
      money_flows(view, classification, ecosystem.websites(),
                  ecosystem.appraisal_panel(), ecosystem.geo(), "OVH", 300.0);
  std::printf("ecosystem money flows: publishers earn ~$%s/day from ads; "
              "%zu OVH seedbox(es) cost ~%s EUR/month in hosting.\n",
              humanize(flows.publishers_income_per_day_usd).c_str(),
              flows.hosting_servers,
              humanize(flows.hosting_income_per_month_eur).c_str());
  std::printf("verdict: content publishing here is %s.\n",
              flows.publishers_income_per_day_usd > 0 ? "largely profit-driven"
                                                      : "altruistic");
  return 0;
}
