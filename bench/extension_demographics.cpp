// Extension — downloader & publisher demographics. Not a numbered table in
// the paper, but the §2 GeoIP mapping applied to the consumer side, the
// demographic view the BitTorrent-ecosystem literature the paper builds on
// (Zhang et al., Pouwelse et al.) reports. Also reprises §3.2's
// supply-vs-demand asymmetry: publishers sit in data-center countries,
// downloaders everywhere.
#include "analysis/demographics.hpp"
#include "common.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

using namespace btpub;

int main(int argc, char** argv) {
  const std::size_t threads = bench::threads_from_args(argc, argv);
  ScenarioConfig pb10 = ScenarioConfig::pb10(bench::kDefaultSeed);
  pb10.threads = threads;
  bench::banner("Extension", "Downloader & publisher demographics",
                "supply concentrates at hosting countries (FR/US data "
                "centers); demand scatters across eyeball ISPs worldwide",
                pb10);

  const MappedDataset mapped = bench::dataset_for(pb10);
  const CompactDatasetView& view = mapped.view();
  const IspCatalog catalog = IspCatalog::standard();
  const auto demo = downloader_demographics(view, catalog.db(), 10);

  AsciiTable countries("Top downloader countries");
  countries.header({"country", "distinct IPs", "share"});
  for (const DemographicRow& row : demo.by_country) {
    countries.row({row.label, std::to_string(row.downloaders),
                   percent(row.share)});
  }
  countries.note("located " + std::to_string(demo.located_ips) + " of " +
                 std::to_string(demo.total_distinct_ips) +
                 " distinct downloader IPs");
  countries.print();

  AsciiTable isps("Top downloader ISPs (all commercial — nobody torrents "
                  "from a rack)");
  isps.header({"ISP", "distinct IPs", "share"});
  for (const DemographicRow& row : demo.by_isp) {
    isps.row({row.label, std::to_string(row.downloaders), percent(row.share)});
  }
  isps.print();

  AsciiTable supply("Publisher countries (per identified published torrent)");
  supply.header({"country", "torrents", "share"});
  for (const DemographicRow& row :
       publisher_countries(view, catalog.db(), 10)) {
    supply.row({row.label, std::to_string(row.downloaders), percent(row.share)});
  }
  supply.note("FR leads through OVH's data centers despite hosting almost no");
  supply.note("downloaders — the supply/demand asymmetry behind Table 3.");
  supply.print();
  return 0;
}
