// Table 1 — datasets description: torrents with identified username / IP
// and total discovered IP addresses, for the mn08 / pb09 / pb10 crawls.
#include "common.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

using namespace btpub;

int main(int argc, char** argv) {
  const std::size_t threads = bench::threads_from_args(argc, argv);
  const auto configs = {ScenarioConfig::mn08(bench::kDefaultSeed),
                        ScenarioConfig::pb09(bench::kDefaultSeed),
                        ScenarioConfig::pb10(bench::kDefaultSeed)};

  bench::banner("Table 1", "Datasets description",
                "mn08 -/20.8K torrents, 8.2M IPs | pb09 23.2K/10.4K, 52.9K IPs "
                "| pb10 38.4K/14.6K, 27.3M IPs (full scale)",
                *configs.begin());

  AsciiTable table("Table 1 — datasets (simulated scale)");
  table.header({"dataset", "window", "#torrents (user/IP)", "#IP addresses",
                "IP obs. total"});
  for (ScenarioConfig config : configs) {
    config.threads = threads;
    const MappedDataset mapped = bench::dataset_for(config);
    const CompactDatasetView& view = mapped.view();
    std::string identified;
    if (view.style == DatasetStyle::Mn08) {
      identified = "- / " + std::to_string(view.with_publisher_ip());
    } else {
      identified = std::to_string(view.with_username()) + " / " +
                   std::to_string(view.with_publisher_ip());
    }
    table.row({std::string(view.name), std::to_string(config.window / kDay) + "d",
               identified, humanize(static_cast<double>(view.distinct_ips_global())),
               humanize(static_cast<double>(view.ip_observations_total()))});
  }
  table.note("shape to match: pb10 identifies the publisher IP for a minority");
  table.note("of torrents (paper: 38%); pb09's single-query style sees 2-3");
  table.note("orders of magnitude fewer IPs than the monitored crawls.");
  table.print();
  return 0;
}
