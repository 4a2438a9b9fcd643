// quickstart — the 60-second tour of the library:
//   1. build a small simulated BitTorrent ecosystem (portal + tracker +
//      publishers + swarms),
//   2. run the paper's measurement crawler over it,
//   3. run the identity analysis and print who publishes what.
//
// Build & run:   ./build/examples/quickstart [seed]
#include <cstdio>
#include <cstdlib>

#include "analysis/contribution.hpp"
#include "analysis/groups.hpp"
#include "core/ecosystem.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

using namespace btpub;

int main(int argc, char** argv) {
  const std::uint64_t seed =
      argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 2026;

  // 1. A week of a small portal's life.
  Ecosystem ecosystem(ScenarioConfig::quick(seed));
  ecosystem.build();
  std::printf("ecosystem: %zu torrents published by %zu publisher entities\n",
              ecosystem.torrent_count(),
              ecosystem.population().publishers.size());

  // 2. Crawl it exactly as the paper's apparatus would.
  //    The analysis reads the compact struct-of-arrays form.
  const CompactDataset dataset = compact_dataset(ecosystem.crawl());
  const CompactDatasetView view = dataset.view();
  std::printf("crawl: %zu torrents, %zu with an identified publisher IP, "
              "%zu distinct downloader IPs\n\n",
              view.torrent_count(), view.with_publisher_ip(),
              view.distinct_ips_global());

  // 3. Analyse: who publishes, and how skewed is it?
  const IdentityAnalysis identity(view, ecosystem.geo(), 40);
  const std::vector<double> xs{3, 10, 50, 100};
  const ContributionCurve curve = contribution_curve(identity, xs);

  AsciiTable table("Contribution skew (top x% of publishers)");
  table.header({"top x%", "content share"});
  for (const LorenzPoint& p : curve.points) {
    table.row({format_double(p.top_percent, 0) + "%",
               format_double(p.content_percent, 1) + "%"});
  }
  table.note("gini = " + format_double(curve.gini, 2));
  table.print();

  const auto fake = identity.share_of(TargetGroup::Fake);
  const auto top = identity.share_of(TargetGroup::Top);
  std::printf("fake publishers: %s of content, %s of downloads\n",
              percent(fake.content).c_str(), percent(fake.downloads).c_str());
  std::printf("top publishers:  %s of content, %s of downloads\n",
              percent(top.content).c_str(), percent(top.downloads).c_str());
  std::printf("\nTop five publishers by published content:\n");
  for (std::size_t i = 0; i < 5 && i < identity.usernames().size(); ++i) {
    const UsernameStats& stats = identity.usernames()[i];
    std::printf("  %-18s %3zu torrents, %5zu downloads%s\n",
                stats.username.c_str(), stats.content_count,
                stats.download_count,
                identity.is_fake(stats.username) ? "  [detected fake]" : "");
  }
  return 0;
}
