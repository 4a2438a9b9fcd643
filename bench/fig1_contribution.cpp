// Figure 1 — percentage of content published by the top x% of publishers,
// plus §3.1's headline numbers (top-100 share, top-IP consumption).
#include "analysis/contribution.hpp"
#include "common.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

using namespace btpub;

int main(int argc, char** argv) {
  const std::size_t threads = bench::threads_from_args(argc, argv);
  ScenarioConfig pb10 = ScenarioConfig::pb10(bench::kDefaultSeed);
  pb10.threads = threads;
  bench::banner("Figure 1", "Content published by the top x% of publishers",
                "top 3% of publishers contribute ~40% of content; ~100 "
                "publishers own 2/3 of content and 3/4 of downloads",
                pb10);

  const std::vector<double> xs{0.5, 1, 2, 3, 5, 10, 20, 40, 60, 80, 100};
  AsciiTable table("Figure 1 — cumulative content share of top x% publishers");
  std::vector<std::string> header{"dataset"};
  for (double x : xs) header.push_back(format_double(x, 1) + "%");
  header.push_back("gini");
  table.header(std::move(header));

  for (ScenarioConfig config :
       {ScenarioConfig::mn08(bench::kDefaultSeed),
        ScenarioConfig::pb09(bench::kDefaultSeed), pb10}) {
    config.threads = threads;
    const MappedDataset mapped = bench::dataset_for(config);
    const CompactDatasetView& view = mapped.view();
    const IdentityAnalysis identity(view, IspCatalog::standard().db(), 100);
    const ContributionCurve curve = contribution_curve(identity, xs);
    std::vector<std::string> row{std::string(view.name)};
    for (const LorenzPoint& p : curve.points) {
      row.push_back(format_double(p.content_percent, 1));
    }
    row.push_back(format_double(curve.gini, 2));
    table.row(std::move(row));
  }
  table.print();

  // §3.1/§3.3 headline splits on pb10.
  const MappedDataset mapped = bench::dataset_for(pb10);
  const CompactDatasetView& view = mapped.view();
  const IspCatalog catalog = IspCatalog::standard();
  const IdentityAnalysis identity(view, catalog.db(), 100);
  const auto fake = identity.share_of(TargetGroup::Fake);
  const auto top = identity.share_of(TargetGroup::Top);

  AsciiTable split("pb10 headline splits (paper: fake 30%/25%, top 37%/50%, "
                   "together 2/3 and 3/4)");
  split.header({"group", "publishers", "content share", "download share"});
  split.row({"Fake", std::to_string(identity.fake_usernames().size()),
             percent(fake.content), percent(fake.downloads)});
  split.row({"Top (non-fake of top-100)", std::to_string(identity.top().size()),
             percent(top.content), percent(top.downloads)});
  split.row({"Fake+Top", "-", percent(fake.content + top.content),
             percent(fake.downloads + top.downloads)});
  split.note("fake usernames inside the top-100 (paper: 16): " +
             std::to_string(identity.compromised_in_top()));
  split.print();

  const auto consumption = top_publisher_consumption(view, identity, 100);
  AsciiTable consume("Top-100 publisher IPs as consumers (paper: 40% download "
                     "nothing, 80% fewer than 5 files)");
  consume.header({"zero downloads", "under 5 downloads", "of"});
  consume.row({std::to_string(consumption.zero_downloads),
               std::to_string(consumption.under_five_downloads),
               std::to_string(consumption.considered)});
  consume.print();
  return 0;
}
