// Table 2 — content publishers distribution per ISP (top-10 per dataset).
#include "analysis/isp.hpp"
#include "common.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

using namespace btpub;

int main(int argc, char** argv) {
  const std::size_t threads = bench::threads_from_args(argc, argv);
  ScenarioConfig pb10 = ScenarioConfig::pb10(bench::kDefaultSeed);
  pb10.threads = threads;
  bench::banner("Table 2", "Content publishers distribution per ISP",
                "pb10 top-10 led by OVH 15.16% (hosting), then a mix of "
                "hosting providers and commercial ISPs (Comcast 2.86%)",
                pb10);

  const IspCatalog catalog = IspCatalog::standard();
  for (ScenarioConfig config :
       {ScenarioConfig::mn08(bench::kDefaultSeed),
        ScenarioConfig::pb09(bench::kDefaultSeed), pb10}) {
    config.threads = threads;
    const MappedDataset mapped = bench::dataset_for(config);
    const CompactDatasetView& view = mapped.view();
    const auto rows = top_publisher_isps(view, catalog.db(), 10);
    AsciiTable table("Table 2 — " + std::string(view.name) +
                     " top-10 ISPs by fed content");
    table.header({"ISP", "type", "% content", "% publisher IPs", "torrents",
                  "IPs"});
    for (const IspShareRow& row : rows) {
      table.row({row.isp, std::string(to_string(row.type)),
                 percent(row.content_share), percent(row.publisher_share),
                 std::to_string(row.torrents), std::to_string(row.publisher_ips)});
    }
    if (view.style == DatasetStyle::Pb10) {
      const auto hosting = top_hosting_share(
          IdentityAnalysis(view, catalog.db(), 100), catalog.db(), "OVH", 100);
      table.note("top-100 publishers at hosting providers (paper: 42%): " +
                 std::to_string(hosting.at_hosting) + "/" +
                 std::to_string(hosting.considered) + ", of which at OVH: " +
                 std::to_string(hosting.at_named_isp));
    }
    table.print();
  }
  return 0;
}
