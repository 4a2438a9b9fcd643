// The trackerless crawl vantage end to end: Ecosystem::dht_crawl()
// determinism, the tracker-vs-DHT cross-check, and the spoofed-scenario
// detection the vantage exists for.
#include <gtest/gtest.h>

#include <utility>

#include "core/ecosystem.hpp"
#include "crawler/cross_check.hpp"
#include "publisher/profile.hpp"

namespace btpub {
namespace {

/// Cuts a preset's population down so the double-build tests stay fast.
ScenarioConfig cut_down(ScenarioConfig config, SimDuration window) {
  config.window = window;
  config.population.regular_publishers = 150;
  config.population.portal_owners = 2;
  config.population.other_web = 2;
  config.population.top_altruistic = 4;
  config.population.fake_farms = 2;
  config.population.fake_usernames = 10;
  config.population.compromised_usernames = 1;
  return config;
}

ScenarioConfig tiny(std::uint64_t seed) {
  ScenarioConfig config = cut_down(ScenarioConfig::quick(seed), days(4));
  config.name = "tiny";
  return config;
}

TEST(DhtCrawlTest, RepeatedCrawlsAreByteIdentical) {
  const ScenarioConfig config = tiny(91);
  Ecosystem ecosystem(config);
  ecosystem.build();
  // dht_crawl() rebuilds its overlay per call, so back-to-back runs from
  // one ecosystem must produce equal datasets...
  const Dataset first = ecosystem.dht_crawl();
  EXPECT_EQ(first, ecosystem.dht_crawl());

  // ...and so must a crawl of a freshly built identical ecosystem.
  Ecosystem rebuilt(config);
  rebuilt.build();
  EXPECT_EQ(first, rebuilt.dht_crawl());
}

TEST(DhtCrawlTest, DhtCrawlDoesNotPerturbTrackerCrawl) {
  const ScenarioConfig config = tiny(92);
  Ecosystem plain(config);
  plain.build();
  const Dataset tracker_only = plain.crawl();

  Ecosystem dual(config);
  dual.build();
  dual.dht_crawl();  // interleave a DHT crawl before the tracker crawl
  EXPECT_EQ(tracker_only, dual.crawl());
}

TEST(DhtCrawlTest, DatasetCarriesVantageNameAndTorrents) {
  Ecosystem ecosystem(tiny(93));
  ecosystem.build();
  const Dataset dataset = ecosystem.dht_crawl();
  EXPECT_NE(dataset.name.find("-dht"), std::string::npos);
  EXPECT_GT(dataset.torrent_count(), 0u);
  // The DHT vantage has no bitfield probes: it never identifies
  // publishers, it only enumerates swarm membership.
  for (std::size_t i = 0; i < dataset.torrent_count(); ++i) {
    EXPECT_FALSE(dataset.torrents[i].publisher_ip.has_value()) << i;
  }
}

TEST(DhtCrawlTest, DhtVantageTakesTheScenariosStyle) {
  // pb09 and mn08 worlds over a short window: the DHT dataset is recorded
  // in the scenario's style, like the tracker vantage's.
  const std::pair<ScenarioConfig, const char*> cases[] = {
      {ScenarioConfig::pb09(95), "pb09-dht"},
      {ScenarioConfig::mn08(96), "mn08-dht"}};
  for (const auto& [preset, name] : cases) {
    Ecosystem ecosystem(cut_down(preset, days(2)));
    ecosystem.build();
    const Dataset dataset = ecosystem.dht_crawl();
    EXPECT_EQ(dataset.style, preset.crawler.style) << name;
    EXPECT_EQ(dataset.name, name);
    ASSERT_GT(dataset.torrent_count(), 0u) << name;
    if (preset.crawler.style == DatasetStyle::Mn08) {
      // mn08 identifies publishers by IP only: no usernames, no user pages.
      for (const TorrentRecord& record : dataset.torrents) {
        EXPECT_TRUE(record.username.empty()) << record.portal_id;
      }
      EXPECT_TRUE(dataset.user_pages.empty());
    } else {
      EXPECT_FALSE(dataset.user_pages.empty()) << name;
    }
  }
}

class SpoofedCrossCheckTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    ScenarioConfig config = tiny(94);
    config.fake_spoofed_peers = 25;  // the spoofed() scenario knob
    ecosystem_ = new Ecosystem(config);
    ecosystem_->build();
    tracker_ = new Dataset(ecosystem_->crawl());
    dht_ = new Dataset(ecosystem_->dht_crawl());
    report_ = new CrossCheckReport(cross_check(*tracker_, *dht_));
  }
  static void TearDownTestSuite() {
    delete report_;
    delete dht_;
    delete tracker_;
    delete ecosystem_;
    report_ = nullptr;
    dht_ = nullptr;
    tracker_ = nullptr;
    ecosystem_ = nullptr;
  }

  static Ecosystem* ecosystem_;
  static Dataset* tracker_;
  static Dataset* dht_;
  static CrossCheckReport* report_;
};

Ecosystem* SpoofedCrossCheckTest::ecosystem_ = nullptr;
Dataset* SpoofedCrossCheckTest::tracker_ = nullptr;
Dataset* SpoofedCrossCheckTest::dht_ = nullptr;
CrossCheckReport* SpoofedCrossCheckTest::report_ = nullptr;

TEST_F(SpoofedCrossCheckTest, FlagsFakePublisherTorrents) {
  // A fake publisher feeds the tracker spoofed decoy peers; none of those
  // addresses can complete a DHT announce (the token handshake stores the
  // datagram source). Every fake torrent the tracker saw a real swarm for
  // must be flagged.
  std::size_t fake_total = 0, fake_flagged = 0;
  for (const TorrentCrossCheck& check : report_->torrents) {
    if (!is_fake(ecosystem_->truth(check.portal_id).publisher_class)) continue;
    ++fake_total;
    if (check.flagged) ++fake_flagged;
  }
  ASSERT_GT(fake_total, 0u);
  // The signature fires on nearly all fake torrents (a few tiny swarms
  // fall under the min-tracker-peers judgement threshold).
  EXPECT_GE(fake_flagged * 10, fake_total * 8)
      << fake_flagged << "/" << fake_total;
}

TEST_F(SpoofedCrossCheckTest, GenuineTorrentsAreNotFlagged) {
  std::size_t genuine_total = 0, genuine_flagged = 0;
  for (const TorrentCrossCheck& check : report_->torrents) {
    if (is_fake(ecosystem_->truth(check.portal_id).publisher_class)) continue;
    ++genuine_total;
    if (check.flagged) ++genuine_flagged;
  }
  ASSERT_GT(genuine_total, 0u);
  EXPECT_EQ(genuine_flagged, 0u);
}

TEST_F(SpoofedCrossCheckTest, FlaggedTorrentsShowAConcreteSignature) {
  // Decoy IPs inflate the tracker's distinct-IP counts but never appear in
  // a get_peers reply. Each flag therefore rests on one of two concrete
  // disagreements: low set overlap, or an identified publisher the DHT
  // never returned (large genuine-looking swarms dilute the overlap above
  // the threshold, but the publisher signature still fires).
  for (const TorrentCrossCheck& check : report_->torrents) {
    if (!check.flagged) continue;
    const bool publisher_missing =
        check.tracker_publisher_ip.has_value() && !check.publisher_in_dht;
    EXPECT_TRUE(check.overlap < 0.5 || publisher_missing) << check.portal_id;
    // Either way the DHT could not confirm the full tracker view.
    EXPECT_GT(check.tracker_peers, check.common) << check.portal_id;
  }
}

TEST_F(SpoofedCrossCheckTest, ReportIsSortedAndCountsAgree) {
  std::size_t flagged = 0;
  for (std::size_t i = 0; i < report_->torrents.size(); ++i) {
    if (i > 0) {
      EXPECT_LT(report_->torrents[i - 1].portal_id,
                report_->torrents[i].portal_id);
    }
    if (report_->torrents[i].flagged) ++flagged;
  }
  EXPECT_EQ(report_->flagged_count(), flagged);
  EXPECT_EQ(report_->matched_count(), report_->torrents.size());
}

}  // namespace
}  // namespace btpub
