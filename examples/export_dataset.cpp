// export_dataset — the data-sharing side of the paper's §7 system: run a
// crawl (or load a cached one) and export it as CSV files that downstream
// tools can analyse — one row per torrent, one per publisher, one per
// (torrent, sighting).
//
// Build & run:   ./build/examples/export_dataset [out_dir] [seed]
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>

#include "analysis/groups.hpp"
#include "core/ecosystem.hpp"
#include "util/strings.hpp"

using namespace btpub;

int main(int argc, char** argv) {
  const std::string out_dir = argc > 1 ? argv[1] : "btpub-export";
  const std::uint64_t seed =
      argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 3;

  Ecosystem ecosystem(ScenarioConfig::quick(seed));
  ecosystem.build();
  const Dataset dataset = ecosystem.crawl();
  const CompactDataset compact = compact_dataset(dataset);
  const IdentityAnalysis identity(compact.view(), ecosystem.geo(), 40);

  std::filesystem::create_directories(out_dir);

  // --- torrents.csv: one row per crawled torrent. ---
  {
    std::ofstream out(out_dir + "/torrents.csv");
    out << "portal_id,infohash,title,category,language,size_bytes,username,"
           "publisher_ip,publisher_isp,published_at,downloads,removed\n";
    for (std::size_t i = 0; i < dataset.torrent_count(); ++i) {
      const TorrentRecord& r = dataset.torrents[i];
      std::string isp = "";
      if (r.publisher_ip) {
        if (const auto loc = ecosystem.geo().lookup(*r.publisher_ip)) {
          isp = std::string(loc->isp_name);
        }
      }
      out << r.portal_id << ',' << r.infohash.hex() << ','
          << csv_escape(r.title) << ',' << to_string(r.category) << ','
          << to_string(r.language) << ',' << r.size_bytes << ','
          << csv_escape(r.username) << ','
          << (r.publisher_ip ? r.publisher_ip->to_string() : "") << ','
          << csv_escape(isp) << ',' << r.published_at << ','
          << dataset.downloaders[i].size() << ','
          << (r.observed_removed ? 1 : 0) << '\n';
    }
  }

  // --- publishers.csv: aggregated per username. ---
  {
    std::ofstream out(out_dir + "/publishers.csv");
    out << "username,contents,downloads,identified_ips,is_fake,is_top\n";
    for (const UsernameStats& stats : identity.usernames()) {
      out << csv_escape(stats.username) << ',' << stats.content_count << ','
          << stats.download_count << ',' << stats.ips.size() << ','
          << (identity.is_fake(stats.username) ? 1 : 0) << ','
          << (identity.in_group(stats.username, TargetGroup::Top) ? 1 : 0)
          << '\n';
    }
  }

  // --- sightings.csv: publisher presence samples (Appendix-A input). ---
  std::size_t sighting_rows = 0;
  {
    std::ofstream out(out_dir + "/sightings.csv");
    out << "portal_id,time_seconds\n";
    for (std::size_t i = 0; i < dataset.torrent_count(); ++i) {
      for (const SimTime t : dataset.publisher_sightings[i]) {
        out << dataset.torrents[i].portal_id << ',' << t << '\n';
        ++sighting_rows;
      }
    }
  }

  std::printf("exported to %s/: %zu torrents, %zu publishers, %zu sightings\n",
              out_dir.c_str(), dataset.torrent_count(),
              identity.usernames().size(), sighting_rows);
  return 0;
}
