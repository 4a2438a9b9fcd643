// Golden pin of one small seeded world's trackerless crawl. The values were
// captured from the tree-decoding KRPC implementation; any change to the
// dht layer (codec, routing table, node, overlay) must leave every lookup
// decision — and so every number here — exactly as it was.
#include <gtest/gtest.h>

#include <cstdint>

#include "core/ecosystem.hpp"
#include "crawler/cross_check.hpp"
#include "crawler/dht_crawler.hpp"

namespace btpub {
namespace {

/// FNV-1a over 64-bit words.
struct Fnv {
  std::uint64_t h = 0xcbf29ce484222325ull;
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 0x100000001b3ull;
    }
  }
};

ScenarioConfig golden_world() {
  ScenarioConfig config = ScenarioConfig::quick(2010);
  config.name = "dht-golden";
  config.window = days(2);
  config.population.regular_publishers = 150;
  config.population.portal_owners = 1;
  config.population.other_web = 1;
  config.population.top_altruistic = 4;
  config.population.fake_farms = 2;
  config.population.fake_usernames = 10;
  config.population.compromised_usernames = 1;
  config.fake_spoofed_peers = 25;  // the spoofed() scenario knob
  return config;
}

TEST(DhtGolden, SeededCrawlIsPinned) {
  const ScenarioConfig config = golden_world();
  Ecosystem eco(config);
  eco.build();
  const auto overlay =
      eco.build_dht_overlay(config.window + config.dht_crawler.grace);
  DhtCrawler crawler(eco.portal(), *overlay, config.dht_crawler, /*seed=*/77);
  const Dataset dht_view = crawler.crawl_window(0, config.window);
  const DhtCrawlTotals& totals = crawler.totals();

  Fnv dataset;
  dataset.u64(dht_view.torrent_count());
  for (std::size_t i = 0; i < dht_view.torrent_count(); ++i) {
    dataset.u64(dht_view.torrents[i].portal_id);
    dataset.u64(dht_view.torrents[i].query_count);
    dataset.u64(dht_view.downloaders[i].size());
    for (IpAddress ip : dht_view.downloaders[i]) dataset.u64(ip.value());
  }

  const CrossCheckReport cross = cross_check(eco.crawl(), dht_view);
  Fnv flags;
  for (const TorrentCrossCheck& t : cross.torrents) {
    flags.u64(t.portal_id);
    flags.u64((t.flagged ? 1 : 0) | (t.publisher_in_dht ? 2 : 0));
  }

  EXPECT_EQ(dht_view.torrent_count(), 62u);
  EXPECT_EQ(dataset.h, 17011788536875234592ull);
  EXPECT_EQ(totals.lookups, 1966u);
  EXPECT_EQ(totals.messages, 42019u);
  EXPECT_EQ(totals.timeouts, 27380u);
  EXPECT_EQ(totals.hops, 17506u);
  EXPECT_EQ(totals.max_hops, 17u);
  EXPECT_EQ(overlay->datagrams(), 94549u);
  EXPECT_EQ(cross.matched_count(), 62u);
  EXPECT_EQ(cross.flagged_count(), 25u);
  EXPECT_EQ(flags.h, 5678898315542375879ull);
}

}  // namespace
}  // namespace btpub
