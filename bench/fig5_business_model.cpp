// Figure 5 / §6 — the business model of content publishing: quantified
// money flows between downloaders, publishers, portals, hosting providers
// and ad companies. The paper draws this as a diagram; we print the flows
// our simulated ecosystem implies, including the §6 OVH hosting-income
// estimate (servers x ~300 EUR/month).
#include "analysis/classify.hpp"
#include "analysis/income.hpp"
#include "common.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

using namespace btpub;

int main(int argc, char** argv) {
  const std::size_t threads = bench::threads_from_args(argc, argv);
  ScenarioConfig pb10 = ScenarioConfig::pb10(bench::kDefaultSeed);
  pb10.threads = threads;
  bench::banner("Figure 5 / §6", "Business-model money flows",
                "OVH earns 23.4K-42.9K EUR/month from 78-164 publisher "
                "servers; publisher sites monetise via ads, donations and "
                "VIP accounts; The Pirate Bay itself valued ~$10M",
                pb10);

  auto ecosystem = bench::build_ecosystem(pb10);
  const MappedDataset mapped = bench::dataset_for(pb10, *ecosystem);
  const CompactDatasetView& view = mapped.view();
  const IdentityAnalysis identity(view, ecosystem->geo(), 100);
  Rng rng(pb10.seed);
  const auto classification = classify_top_publishers(
      view, identity, ecosystem->websites(), 5, rng);
  const MoneyFlows flows =
      money_flows(view, classification, ecosystem->websites(),
                  ecosystem->appraisal_panel(), ecosystem->geo(), "OVH", 300.0);

  AsciiTable table("Figure 5 — estimated money flows");
  table.header({"flow", "estimate"});
  std::string ad_income = "$";
  ad_income += humanize(flows.publishers_income_per_day_usd);
  ad_income += " / day";
  table.row({"downloaders -> publisher sites (visits monetised via ads)",
             ad_income});
  table.row({"publishers -> hosting (OVH servers found in crawl)",
             std::to_string(flows.hosting_servers) + " servers"});
  table.row({"hosting income (servers x 300 EUR/month)",
             humanize(flows.hosting_income_per_month_eur) + " EUR / month"});
  table.row({"ad companies -> publisher sites",
             std::to_string(flows.publishers_with_ads) + " sites via " +
                 std::to_string(flows.ad_networks) + " ad networks"});
  table.note("money circulates: ads companies pay publishers for eyeballs the");
  table.note("portal delivers for free; publishers pay hosting providers for");
  table.note("the seedboxes that keep the content flowing.");
  table.print();

  // Count monetisation channels observed on profit-driven sites (§5.1).
  std::size_t ads = 0, donations = 0, vip = 0, signup = 0, profit = 0;
  for (const PublisherProfile& p : classification.profiles) {
    if (p.cls == BusinessClass::Altruistic) continue;
    ++profit;
    ads += p.ads;
    donations += p.donations;
    vip += p.vip;
    signup += p.signup;
  }
  AsciiTable channels("Monetisation channels across profit-driven publishers");
  channels.header({"publishers", "ads", "donations", "VIP access", "signup"});
  channels.row({std::to_string(profit), std::to_string(ads),
                std::to_string(donations), std::to_string(vip),
                std::to_string(signup)});
  channels.print();
  return 0;
}
