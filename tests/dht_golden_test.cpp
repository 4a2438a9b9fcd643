// Golden pins of the trackerless lookup path: one small seeded world's crawl
// (values captured from the tree-decoding KRPC implementation) and
// read-only lookups on bare overlays. Any change to the dht layer (codec,
// routing table, node, overlay) must leave every lookup decision — and so
// every number here — exactly as it was.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/ecosystem.hpp"
#include "crawler/cross_check.hpp"
#include "crawler/dht_crawler.hpp"
#include "crypto/sha1.hpp"
#include "dht/overlay.hpp"
#include "util/rng.hpp"

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

/// `n_nodes` joined one per second from a synthetic /8, 64 torrents with 20
/// announced peers each, then 300 read-only get_peers for torrents drawn
/// from Rng(99): the digest covers every lookup's hops, messages and peers.
std::uint64_t overlay_lookup_digest(std::size_t n_nodes) {
  constexpr std::size_t kTorrents = 64;
  constexpr std::size_t kPeersPerTorrent = 20;
  constexpr std::size_t kLookups = 300;
  dht::DhtOverlay overlay(/*seed=*/7);

  SimTime now = 0;
  std::vector<Endpoint> endpoints;
  for (std::size_t i = 0; i < n_nodes; ++i) {
    const Endpoint endpoint{
        IpAddress(0x0D000000 + static_cast<std::uint32_t>(i)), 6881};
    overlay.add_node(endpoint, ++now);
    endpoints.push_back(endpoint);
  }
  std::vector<Sha1Digest> infohashes;
  for (std::size_t t = 0; t < kTorrents; ++t) {
    infohashes.push_back(Sha1::hash("dht_perf_" + std::to_string(t)));
    for (std::size_t p = 0; p < kPeersPerTorrent; ++p) {
      overlay.announce_peer(infohashes.back(),
                            endpoints[(t * kPeersPerTorrent + p) % n_nodes],
                            ++now);
    }
  }

  const Endpoint vantage{IpAddress(10, 88, 0, 1), 6881};
  Rng rng(99);
  Fnv digest;
  for (std::size_t i = 0; i < kLookups; ++i) {
    const Sha1Digest& infohash = infohashes[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(kTorrents - 1)))];
    dht::LookupStats stats;
    const auto found = overlay.get_peers(infohash, vantage, now, &stats, {},
                                         /*read_only=*/true);
    digest.u64(stats.hops);
    digest.u64(stats.messages);
    digest.u64(found.size());
    for (const Endpoint& peer : found) {
      digest.u64((std::uint64_t{peer.ip.value()} << 16) | peer.port);
    }
  }
  return digest.h;
}

TEST(DhtGolden, OverlayLookupsArePinned) {
  for (const auto& [nodes, pinned] :
       {std::pair{std::size_t{100}, 0x7530568f820f6b66ull},
        std::pair{std::size_t{1000}, 0x27e4d2ec025968d6ull}}) {
    SCOPED_TRACE(std::to_string(nodes) + " nodes");
    const std::uint64_t first = overlay_lookup_digest(nodes);
    // A second overlay from the same seed must repeat every lookup.
    EXPECT_EQ(overlay_lookup_digest(nodes), first);
    EXPECT_EQ(first, pinned);
  }
}

}  // namespace
}  // namespace btpub
