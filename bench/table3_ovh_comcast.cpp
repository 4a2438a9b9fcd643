// Table 3 — characteristics of OVH vs Comcast feeders: fed torrents,
// distinct IPs, /16 prefixes and geographic locations, plus the §3.2
// observation that OVH addresses never show up as consumers.
#include "analysis/isp.hpp"
#include "common.hpp"
#include "util/table.hpp"

using namespace btpub;

int main(int argc, char** argv) {
  const std::size_t threads = bench::threads_from_args(argc, argv);
  ScenarioConfig pb10 = ScenarioConfig::pb10(bench::kDefaultSeed);
  pb10.threads = threads;
  bench::banner("Table 3", "OVH vs Comcast feeder profiles",
                "pb10: OVH 2213 torrents / 92 IPs / 7 prefixes / 4 locations; "
                "Comcast 408 / 185 / 139 / 147 — concentrated racks vs "
                "scattered homes",
                pb10);

  const IspCatalog catalog = IspCatalog::standard();
  AsciiTable table("Table 3 — feeder profiles per dataset");
  table.header({"row", "fed torrents", "IP addr", "/16 pref.", "geo loc.",
                "consumer IPs"});
  for (ScenarioConfig config :
       {ScenarioConfig::mn08(bench::kDefaultSeed),
        ScenarioConfig::pb09(bench::kDefaultSeed), pb10}) {
    config.threads = threads;
    const MappedDataset mapped = bench::dataset_for(config);
    const CompactDatasetView& view = mapped.view();
    for (const char* isp : {"OVH", "Comcast"}) {
      const IspFeederProfile profile = isp_feeder_profile(view, catalog.db(), isp);
      table.row({std::string(isp) + " (" + std::string(view.name) + ")",
                 std::to_string(profile.fed_torrents),
                 std::to_string(profile.distinct_ips),
                 std::to_string(profile.distinct_prefixes16),
                 std::to_string(profile.distinct_locations),
                 std::to_string(consumers_from_isp(view, catalog.db(), isp))});
    }
    table.separator();
  }
  table.note("shape to match: OVH feeds several times more content from far");
  table.note("fewer addresses, a handful of prefixes and 2-4 data-center");
  table.note("cities, and contributes (almost) no consumers.");
  table.print();
  return 0;
}
