// Crawl determinism: a crawl is a pure function of the world and its
// seeds, so the same crawl over a reset tracker gives a Dataset equal,
// field for field, to the first. Two layers:
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
    request.torrent = metainfo.file();
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

  Dataset crawl() {
    tracker_.reset_state(77);
    Crawler crawler(portal_, tracker_, network_, geo_, CrawlerConfig{}, 9);
    return crawler.crawl_window(0, days(2));
  }

  GeoDb geo_;
  Portal portal_;
  Tracker tracker_;
  SwarmNetwork network_;
  std::vector<std::unique_ptr<Swarm>> swarms_;
};

TEST_F(CrawlerParallelTest, SameSeedReplayIsIdentical) {
  const Dataset first = crawl();
  ASSERT_GT(first.torrent_count(), 0u);
  EXPECT_EQ(crawl(), first);
}

TEST_F(CrawlerParallelTest, OneCrawlerReplaysAcrossCallsAndDiscover) {
  // crawl_window and discover share one warm scratch: nothing a previous
  // call left in it (the last torrent's seen-IP set above all) may change
  // a later call's output.
  tracker_.reset_state(77);
  Crawler crawler(portal_, tracker_, network_, geo_, CrawlerConfig{}, 9);
  const Dataset first = crawler.crawl_window(0, days(2));
  tracker_.reset_state(77);
  EXPECT_EQ(crawler.crawl_window(0, days(2)), first);

  ASSERT_GT(first.torrent_count(), 0u);
  const TorrentRecord& last = first.torrents.back();
  std::vector<IpAddress> warm_ips, fresh_ips;
  std::vector<SimTime> warm_sightings, fresh_sightings;
  tracker_.reset_state(77);
  const auto warm =
      crawler.discover(last.portal_id, last.first_seen, warm_ips, warm_sightings);
  tracker_.reset_state(77);
  Crawler fresh(portal_, tracker_, network_, geo_, CrawlerConfig{}, 9);
  const auto cold =
      fresh.discover(last.portal_id, last.first_seen, fresh_ips, fresh_sightings);
  ASSERT_TRUE(warm.has_value());
  ASSERT_TRUE(cold.has_value());
  EXPECT_EQ(*warm, *cold);
  EXPECT_FALSE(warm_ips.empty());
  EXPECT_EQ(warm_ips, fresh_ips);
  EXPECT_EQ(warm_sightings, fresh_sightings);
}

TEST_F(CrawlerParallelTest, DatasetIsInPortalIdOrder) {
  const Dataset dataset = crawl();
  for (std::size_t i = 1; i < dataset.torrent_count(); ++i) {
    EXPECT_LT(dataset.torrents[i - 1].portal_id, dataset.torrents[i].portal_id);
  }
}

TEST(CrawlerParallelEcosystemTest, GeneratedScenarioReplayIsIdentical) {
  // The production path: a generated ecosystem, crawled twice through
  // Crawler over the same tracker.
  ScenarioConfig config = ScenarioConfig::quick(1234);
  config.window = days(2);
  config.population.regular_publishers = 120;
  config.population.fake_usernames = 10;
  Ecosystem ecosystem(config);
  ecosystem.build();

  auto crawl = [&] {
    ecosystem.tracker().reset_state(config.seed ^ 0x7214CBull);
    Crawler crawler(ecosystem.portal(), ecosystem.tracker(),
                    ecosystem.network(), ecosystem.geo(), config.crawler,
                    config.seed ^ 0xC4A37E5ull);
    return crawler.crawl_window(0, config.window);
  };

  const Dataset first = crawl();
  ASSERT_GT(first.torrent_count(), 0u);
  EXPECT_EQ(crawl(), first);
}

}  // namespace
}  // namespace btpub
