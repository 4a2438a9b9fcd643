// Parallel crawl engine determinism: the headline invariant is that a
// crawl with N worker threads produces a Dataset equal, field for field,
// to the sequential crawl's. Two layers:
//   * a hand-built multi-torrent mini ecosystem (fast, exercises staggered
//     publication times and per-torrent RNG substreams), and
//   * a generated quick-scenario ecosystem crawled through the same
//     Crawler the production path uses.
#include <gtest/gtest.h>

#include "core/ecosystem.hpp"
#include "crawler/crawler.hpp"
#include "torrent/metainfo.hpp"

namespace btpub {
namespace {

class CrawlerParallelTest : public ::testing::Test {
 protected:
  CrawlerParallelTest() : portal_("mini"), tracker_(TrackerConfig{}, Rng(3)) {
    const IspId isp = geo_.add_isp("MiniNet", IspType::HostingProvider, "FR");
    geo_.add_block(CidrBlock(IpAddress(11, 0, 0, 0), 8), isp, "Paris");
    // A dozen torrents with staggered births, varying swarm sizes and one
    // moderated listing — enough structure that any ordering dependence
    // in the engine would show up in the crawled dataset.
    for (std::uint32_t i = 0; i < 12; ++i) {
      std::string title = "t";
      title += std::to_string(i);
      const TorrentId id =
          add_torrent(title, /*publisher_nat=*/i % 5 == 3,
                      /*extra_leechers=*/3 + i, /*extra_seeders=*/i % 4 == 2,
                      /*publish_at=*/minutes(10) + hours(2) * i,
                      /*publisher_stay=*/hours(3 + i % 3));
      if (i == 7) portal_.moderate_remove(id, hours(30));
    }
  }

  TorrentId add_torrent(const std::string& title, bool publisher_nat,
                        std::size_t extra_leechers, std::size_t extra_seeders,
                        SimTime publish_at, SimDuration publisher_stay) {
    Metainfo metainfo = Metainfo::make(std::string(kTrackerAnnounceUrl), title,
                                       {{title + ".avi", 5 << 20}}, 256 * 1024,
                                       title);
    PublishRequest request;
    request.title = title;
    request.category = ContentCategory::Movies;
    request.username = "user_" + title;
    request.torrent_bytes = metainfo.encode();
    request.infohash = metainfo.infohash();
    request.size_bytes = metainfo.total_size();
    const TorrentId id = portal_.publish(std::move(request), publish_at);

    auto swarm = std::make_unique<Swarm>(metainfo.infohash(),
                                         metainfo.piece_count(), publish_at);
    PeerSession publisher;
    publisher.endpoint = Endpoint{IpAddress(0x0B000001 + id * 256), 6881};
    publisher.arrive = publish_at;
    publisher.depart = publish_at + publisher_stay;
    publisher.complete_at = publish_at;
    publisher.nat = publisher_nat;
    publisher.is_publisher = true;
    swarm->add_session(publisher);
    for (std::size_t i = 0; i < extra_leechers; ++i) {
      PeerSession s;
      s.endpoint = Endpoint{IpAddress(0x0B010000 + id * 4096 +
                                      static_cast<std::uint32_t>(i)),
                            20000};
      s.arrive = publish_at + minutes(20) * static_cast<SimDuration>(i);
      s.depart = s.arrive + hours(6);
      swarm->add_session(s);
    }
    for (std::size_t i = 0; i < extra_seeders; ++i) {
      PeerSession s;
      s.endpoint = Endpoint{IpAddress(0x0B020000 + id * 4096 +
                                      static_cast<std::uint32_t>(i)),
                            20000};
      s.arrive = publish_at;
      s.depart = publish_at + hours(6);
      s.complete_at = publish_at;
      swarm->add_session(s);
    }
    swarm->finalize();
    tracker_.host_swarm(*swarm);
    network_.register_swarm(*swarm);
    swarms_.push_back(std::move(swarm));
    return id;
  }

  Dataset crawl_with_threads(std::size_t threads) {
    tracker_.reset_state(77);
    CrawlerConfig config;
    config.threads = threads;
    Crawler crawler(portal_, tracker_, network_, geo_, config, 9);
    return crawler.crawl_window(0, days(2));
  }

  GeoDb geo_;
  Portal portal_;
  Tracker tracker_;
  SwarmNetwork network_;
  std::vector<std::unique_ptr<Swarm>> swarms_;
};

TEST_F(CrawlerParallelTest, FourThreadsByteIdenticalToOneThread) {
  const Dataset sequential = crawl_with_threads(1);
  const Dataset parallel = crawl_with_threads(4);
  ASSERT_GT(sequential.torrent_count(), 0u);
  EXPECT_EQ(sequential.torrent_count(), parallel.torrent_count());
  EXPECT_EQ(sequential, parallel);
}

TEST_F(CrawlerParallelTest, ManyThreadsAndRepeatedRunsAllIdentical) {
  const Dataset reference = crawl_with_threads(1);
  for (const std::size_t threads : {2u, 3u, 8u, 16u}) {
    EXPECT_EQ(crawl_with_threads(threads), reference)
        << "thread count " << threads << " diverged";
  }
  // Replay at the same thread count is stable too.
  EXPECT_EQ(crawl_with_threads(4), crawl_with_threads(4));
}

TEST_F(CrawlerParallelTest, MergeOrderIsPortalIdOrder) {
  const Dataset parallel = crawl_with_threads(8);
  for (std::size_t i = 1; i < parallel.torrent_count(); ++i) {
    EXPECT_LT(parallel.torrents[i - 1].portal_id, parallel.torrents[i].portal_id);
  }
}

TEST(CrawlerParallelEcosystemTest, GeneratedScenarioByteIdentical) {
  // The production path: a generated ecosystem, crawled twice through
  // Crawler with different thread counts over the same tracker.
  ScenarioConfig config = ScenarioConfig::quick(1234);
  config.window = days(2);
  config.population.regular_publishers = 120;
  config.population.fake_usernames = 10;
  Ecosystem ecosystem(config);
  ecosystem.build();

  auto crawl = [&](std::size_t threads) {
    ecosystem.tracker().reset_state(config.seed ^ 0x7214CBull);
    CrawlerConfig crawler_config = config.crawler;
    crawler_config.threads = threads;
    Crawler crawler(ecosystem.portal(), ecosystem.tracker(),
                    ecosystem.network(), ecosystem.geo(), crawler_config,
                    config.seed ^ 0xC4A37E5ull);
    return crawler.crawl_window(0, config.window);
  };

  const Dataset sequential = crawl(1);
  const Dataset parallel = crawl(4);
  ASSERT_GT(sequential.torrent_count(), 0u);
  EXPECT_EQ(sequential, parallel);
}

}  // namespace
}  // namespace btpub
