// Crawler methodology tests over a hand-built miniature ecosystem.
#include "crawler/crawler.hpp"

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "crawler/compact_dataset.hpp"
#include "crawler/discovery.hpp"
#include "torrent/metainfo.hpp"

namespace btpub {
namespace {

constexpr std::uint32_t kPublisherIp = 0x0B000001;  // 11.0.0.1

class CrawlerTest : public ::testing::Test {
 protected:
  CrawlerTest()
      : portal_("mini"), tracker_(TrackerConfig{}, Rng(3)) {
    const IspId isp = geo_.add_isp("MiniNet", IspType::HostingProvider, "FR");
    geo_.add_block(CidrBlock(IpAddress(11, 0, 0, 0), 8), isp, "Paris");
  }

  /// Publishes a torrent and builds its swarm. Returns the portal id.
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
    request.textbox = "Visit http://www.example.com/ now";
    request.torrent = metainfo.file();
    request.infohash = metainfo.infohash();
    request.size_bytes = metainfo.total_size();
    const TorrentId id = portal_.publish(std::move(request), publish_at);

    auto swarm = std::make_unique<Swarm>(metainfo.infohash(),
                                         metainfo.piece_count(), publish_at);
    PeerSession publisher;
    publisher.endpoint = Endpoint{IpAddress(kPublisherIp + id * 256), 6881};
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
      s.arrive = publish_at;
      s.depart = publish_at + hours(6);
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

  Crawler make_crawler(CrawlerConfig config = {}) {
    return Crawler(portal_, tracker_, network_, geo_, config, 9);
  }

  GeoDb geo_;
  Portal portal_;
  Tracker tracker_;
  SwarmNetwork network_;
  std::vector<std::unique_ptr<Swarm>> swarms_;
};

TEST_F(CrawlerTest, DiscoverIdentifiesInitialSeeder) {
  const TorrentId id = add_torrent("alpha", false, 3, 0, 100, hours(5));
  Crawler crawler = make_crawler();
  std::vector<IpAddress> ips;
  std::vector<SimTime> sightings;
  const auto record = crawler.discover(id, 200, ips, sightings);
  ASSERT_TRUE(record.has_value());
  ASSERT_TRUE(record->publisher_ip.has_value());
  EXPECT_EQ(*record->publisher_ip, IpAddress(kPublisherIp + id * 256));
  EXPECT_EQ(record->initial_seeders, 1u);
  EXPECT_EQ(record->initial_peers, 4u);
  EXPECT_EQ(record->username, "user_alpha");
  EXPECT_EQ(record->title, "alpha");
  EXPECT_GT(record->piece_count, 0u);
  EXPECT_EQ(ips.size(), 3u);  // leechers only; publisher excluded
}

TEST_F(CrawlerTest, NatPublisherNotIdentified) {
  const TorrentId id = add_torrent("natted", true, 3, 0, 100, hours(5));
  Crawler crawler = make_crawler();
  std::vector<IpAddress> ips;
  std::vector<SimTime> sightings;
  const auto record = crawler.discover(id, 200, ips, sightings);
  ASSERT_TRUE(record.has_value());
  EXPECT_FALSE(record->publisher_ip.has_value());
  // The unidentifiable publisher is indistinguishable from a downloader.
  EXPECT_EQ(ips.size(), 4u);
}

TEST_F(CrawlerTest, CrowdedSwarmBlocksIdentification) {
  const TorrentId id = add_torrent("crowded", false, 30, 0, 100, hours(5));
  Crawler crawler = make_crawler();
  std::vector<IpAddress> ips;
  std::vector<SimTime> sightings;
  const auto record = crawler.discover(id, 200, ips, sightings);
  ASSERT_TRUE(record.has_value());
  EXPECT_FALSE(record->publisher_ip.has_value());
  EXPECT_EQ(record->initial_peers, 31u);
}

TEST_F(CrawlerTest, SecondSeederBlocksIdentification) {
  const TorrentId id = add_torrent("preseeded", false, 3, 1, 100, hours(5));
  Crawler crawler = make_crawler();
  std::vector<IpAddress> ips;
  std::vector<SimTime> sightings;
  const auto record = crawler.discover(id, 200, ips, sightings);
  ASSERT_TRUE(record.has_value());
  EXPECT_FALSE(record->publisher_ip.has_value());
  EXPECT_EQ(record->initial_seeders, 2u);
}

TEST_F(CrawlerTest, RemovedContentYieldsNothing) {
  const TorrentId id = add_torrent("pulled", false, 2, 0, 100, hours(5));
  portal_.moderate_remove(id, 150);
  Crawler crawler = make_crawler();
  std::vector<IpAddress> ips;
  std::vector<SimTime> sightings;
  EXPECT_FALSE(crawler.discover(id, 200, ips, sightings).has_value());
  // Discovered before removal works fine.
  EXPECT_TRUE(crawler.discover(id, 120, ips, sightings).has_value());
}

TEST_F(CrawlerTest, Mn08StyleOmitsUsername) {
  const TorrentId id = add_torrent("anon", false, 2, 0, 100, hours(5));
  CrawlerConfig config;
  config.style = DatasetStyle::Mn08;
  Crawler crawler = make_crawler(config);
  std::vector<IpAddress> ips;
  std::vector<SimTime> sightings;
  const auto record = crawler.discover(id, 200, ips, sightings);
  ASSERT_TRUE(record.has_value());
  EXPECT_TRUE(record->username.empty());
  EXPECT_TRUE(record->publisher_ip.has_value());  // IP still identified
}

TEST_F(CrawlerTest, TextboxAndPayloadSnapshotsTaken) {
  const TorrentId id = add_torrent("snap", false, 1, 0, 100, hours(5));
  Crawler crawler = make_crawler();
  std::vector<IpAddress> ips;
  std::vector<SimTime> sightings;
  const auto record = crawler.discover(id, 200, ips, sightings);
  ASSERT_TRUE(record.has_value());
  EXPECT_NE(record->textbox.find("http://www.example.com/"), std::string::npos);
  ASSERT_EQ(record->payload_filenames.size(), 1u);
  // BEP 3: a single-file torrent's file name is the info "name" itself.
  EXPECT_EQ(record->payload_filenames[0], "snap");
}

TEST_F(CrawlerTest, CrawlWindowMonitorsAndStops) {
  add_torrent("watched", false, 8, 0, minutes(10), hours(4));
  CrawlerConfig config;
  Crawler crawler = make_crawler(config);
  const Dataset dataset = crawler.crawl_window(0, days(2));
  ASSERT_EQ(dataset.torrent_count(), 1u);
  const TorrentRecord& record = dataset.torrents[0];
  ASSERT_TRUE(record.publisher_ip.has_value());
  // The publisher was sighted repeatedly while it seeded...
  EXPECT_GE(dataset.publisher_sightings[0].size(), 5u);
  // ...and monitoring stopped shortly after the swarm died instead of
  // running to the horizon: ~6h of life at >=10-minute gaps plus ten empty
  // replies is far less than 2 days of polling.
  EXPECT_LT(record.query_count, 70u);
  EXPECT_GE(record.query_count, 25u);
  EXPECT_EQ(dataset.downloaders[0].size(), 8u);
  const CompactDataset compact = compact_dataset(dataset);
  EXPECT_EQ(compact.view().with_username(), 1u);
  EXPECT_EQ(compact.view().with_publisher_ip(), 1u);
}

TEST_F(CrawlerTest, Pb09StyleQueriesOnlyOnce) {
  add_torrent("oneshot", false, 5, 0, minutes(10), hours(4));
  CrawlerConfig config;
  config.style = DatasetStyle::Pb09;
  Crawler crawler = make_crawler(config);
  const Dataset dataset = crawler.crawl_window(0, days(2));
  ASSERT_EQ(dataset.torrent_count(), 1u);
  EXPECT_EQ(dataset.torrents[0].query_count, 1u);
}

TEST_F(CrawlerTest, CrawlWindowSkipsOutOfWindowTorrents) {
  add_torrent("early", false, 2, 0, 50, hours(2));
  Crawler crawler = make_crawler();
  const Dataset dataset = crawler.crawl_window(days(1), days(2));
  EXPECT_EQ(dataset.torrent_count(), 0u);
}

TEST_F(CrawlerTest, ModerationObservedDuringMonitoring) {
  const TorrentId id = add_torrent("takedown", false, 6, 0, minutes(10), days(1));
  portal_.moderate_remove(id, hours(13));
  Crawler crawler = make_crawler();
  const Dataset dataset = crawler.crawl_window(0, days(2));
  ASSERT_EQ(dataset.torrent_count(), 1u);
  EXPECT_TRUE(dataset.torrents[0].observed_removed);
  // Seen at the first page re-check after the removal: the publisher keeps
  // the swarm alive for a day, so monitoring is still running then.
  EXPECT_GE(dataset.torrents[0].observed_removed_at, hours(13));
  EXPECT_LE(dataset.torrents[0].observed_removed_at,
            hours(13) + kPageRecheck + minutes(20));
}

TEST_F(CrawlerTest, UserPagesSnapshotIncludesBanState) {
  const TorrentId id = add_torrent("banned", false, 4, 0, minutes(10), hours(3));
  portal_.moderate_remove(id, hours(20));
  Crawler crawler = make_crawler();
  const Dataset dataset = crawler.crawl_window(0, days(1));
  ASSERT_EQ(dataset.torrent_count(), 1u);
  const auto it = dataset.user_pages.find("user_banned");
  ASSERT_NE(it, dataset.user_pages.end());
  EXPECT_TRUE(it->second.banned);
  EXPECT_EQ(it->second.publish_times.size(), 1u);
}

TEST_F(CrawlerTest, DeterministicAcrossRuns) {
  add_torrent("det", false, 10, 0, minutes(10), hours(4));
  tracker_.reset_state(3);
  const Dataset a = make_crawler().crawl_window(0, days(1));
  tracker_.reset_state(3);  // identical tracker state for the replay
  const Dataset b = make_crawler().crawl_window(0, days(1));
  ASSERT_EQ(a.torrent_count(), b.torrent_count());
  EXPECT_EQ(a.torrents[0].query_count, b.torrents[0].query_count);
  EXPECT_EQ(a.downloaders[0].size(), b.downloaders[0].size());
  EXPECT_EQ(a.publisher_sightings[0], b.publisher_sightings[0]);
}

// ---- the shared discovery rules (crawler/discovery.hpp) --------------------

TEST(DiscoveryRules, NextPollTickPlusJitter) {
  const SimDuration poll = minutes(5);
  for (const SimTime published : {SimTime{0}, SimTime{1}, minutes(5) - 1,
                                  minutes(5), hours(7) + 13}) {
    for (TorrentId id = 0; id < 50; ++id) {
      const SimTime tick = (published / poll + 1) * poll;  // strictly after
      const SimTime at = discovery_time(published, poll, 9, id);
      EXPECT_GE(at, tick + 5) << published << " " << id;
      EXPECT_LE(at, tick + 60) << published << " " << id;
      EXPECT_EQ(at, discovery_time(published, poll, 9, id));  // keyed, stateless
    }
  }
  // The jitter is per torrent: ids draw from their own substreams.
  std::set<SimTime> distinct;
  for (TorrentId id = 0; id < 50; ++id) distinct.insert(discovery_time(0, poll, 9, id));
  EXPECT_GT(distinct.size(), 10u);
}

TEST_F(CrawlerTest, WindowTorrentsAreThePublishedOnesInIdOrder) {
  const TorrentId a = add_torrent("a", false, 0, 0, minutes(10), hours(3));
  const TorrentId b = add_torrent("b", false, 0, 0, days(1) - 1, hours(3));
  add_torrent("late", false, 0, 0, days(1) + hours(1), hours(3));
  const auto torrents =
      window_torrents(portal_, 0, days(1), minutes(5), 9);
  ASSERT_EQ(torrents.size(), 2u);
  EXPECT_EQ(torrents[0].id, a);
  EXPECT_EQ(torrents[0].discovery, discovery_time(minutes(10), minutes(5), 9, a));
  EXPECT_EQ(torrents[1].id, b);
  EXPECT_EQ(torrents[1].discovery, discovery_time(days(1) - 1, minutes(5), 9, b));
  // A torrent removed before discovery is still in the window: the crawler
  // learns of it, then finds it gone (fetch_record).
  portal_.moderate_remove(a, minutes(11));
  EXPECT_EQ(window_torrents(portal_, 0, days(1), minutes(5), 9).size(), 2u);
}

TEST_F(CrawlerTest, FetchRecordCopiesThePageAndTheMetainfo) {
  const TorrentId id = add_torrent("rec", false, 0, 0, minutes(10), hours(3));
  const auto record = fetch_record(portal_, id, minutes(20), DatasetStyle::Pb10);
  ASSERT_TRUE(record.has_value());
  EXPECT_EQ(record->portal_id, id);
  EXPECT_EQ(record->title, "rec");
  EXPECT_EQ(record->username, "user_rec");
  EXPECT_EQ(record->published_at, minutes(10));
  EXPECT_EQ(record->payload_filenames, std::vector<std::string>{"rec"});
  EXPECT_EQ(record->infohash, swarms_.back()->infohash());
  EXPECT_EQ(record->query_count, 0u);  // no observation yet
  EXPECT_TRUE(
      fetch_record(portal_, id, minutes(20), DatasetStyle::Mn08)->username.empty());
  EXPECT_FALSE(fetch_record(portal_, id, minutes(5), DatasetStyle::Pb10));  // unpublished
  portal_.moderate_remove(id, minutes(30));
  EXPECT_FALSE(fetch_record(portal_, id, minutes(30), DatasetStyle::Pb10));
}

TEST_F(CrawlerTest, FetchRecordSkipsMalformedTorrent) {
  PublishRequest request;
  request.title = "broken";
  request.username = "user_broken";
  request.torrent.head = "d4:infoi3e";  // truncated bencode
  const TorrentId id = portal_.publish(std::move(request), minutes(10));
  EXPECT_FALSE(fetch_record(portal_, id, minutes(20), DatasetStyle::Pb10));
  EXPECT_EQ(make_crawler().crawl_window(0, days(1)).torrent_count(), 0u);
}

TEST_F(CrawlerTest, Mn08SnapshotsNoUserPages) {
  add_torrent("mn", false, 2, 0, minutes(10), hours(3));
  CrawlerConfig config;
  config.style = DatasetStyle::Mn08;
  const Dataset dataset = make_crawler(config).crawl_window(0, days(1));
  ASSERT_EQ(dataset.torrent_count(), 1u);
  EXPECT_TRUE(dataset.user_pages.empty());
}

}  // namespace
}  // namespace btpub
