// Every batch analysis pass gives identical results on an in-memory
// CompactDataset view and on the mmap-ed snapshot reloaded from it: the
// view is the analysis layer's one input type, whichever bytes back it.
#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <string>

#include "analysis/classify.hpp"
#include "analysis/contribution.hpp"
#include "analysis/demographics.hpp"
#include "analysis/groups.hpp"
#include "analysis/session.hpp"
#include "core/ecosystem.hpp"
#include "crawler/compact_dataset.hpp"
#include "crawler/dataset_mmap.hpp"

namespace btpub {
namespace {

ScenarioConfig small_scenario() {
  ScenarioConfig config = ScenarioConfig::spoofed(7);
  config.window = days(3);
  config.population.regular_publishers /= 4;
  return config;
}

void expect_identity_eq(const IdentityAnalysis& a, const IdentityAnalysis& b,
                        const std::string& what) {
  ASSERT_EQ(a.usernames().size(), b.usernames().size()) << what;
  for (std::size_t i = 0; i < a.usernames().size(); ++i) {
    const UsernameStats& x = a.usernames()[i];
    const UsernameStats& y = b.usernames()[i];
    ASSERT_EQ(x.username, y.username) << what << " username " << i;
    ASSERT_EQ(x.torrents, y.torrents) << what << " " << x.username;
    ASSERT_EQ(x.content_count, y.content_count) << what << " " << x.username;
    ASSERT_EQ(x.download_count, y.download_count) << what << " " << x.username;
    ASSERT_EQ(x.ips, y.ips) << what << " " << x.username;
    ASSERT_EQ(x.banned, y.banned) << what << " " << x.username;
  }
  ASSERT_EQ(a.ips().size(), b.ips().size()) << what;
  for (std::size_t i = 0; i < a.ips().size(); ++i) {
    const IpStats& x = a.ips()[i];
    const IpStats& y = b.ips()[i];
    ASSERT_EQ(x.ip, y.ip) << what << " ip row " << i;
    ASSERT_EQ(x.torrents, y.torrents) << what << " " << x.ip.to_string();
    ASSERT_EQ(x.content_count, y.content_count) << what << " " << x.ip.to_string();
    ASSERT_EQ(x.usernames, y.usernames) << what << " " << x.ip.to_string();
    ASSERT_EQ(x.banned_usernames, y.banned_usernames)
        << what << " " << x.ip.to_string();
  }
  EXPECT_EQ(a.top(), b.top()) << what;
  EXPECT_EQ(a.compromised_in_top(), b.compromised_in_top()) << what;
  EXPECT_EQ(a.fake_usernames(), b.fake_usernames()) << what;
  EXPECT_EQ(a.fake_ips(), b.fake_ips()) << what;
  EXPECT_EQ(a.top_hp(), b.top_hp()) << what;
  EXPECT_EQ(a.top_ci(), b.top_ci()) << what;
  EXPECT_EQ(a.total_content(), b.total_content()) << what;
  EXPECT_EQ(a.total_downloads(), b.total_downloads()) << what;
  for (TargetGroup g : {TargetGroup::All, TargetGroup::Fake, TargetGroup::Top,
                        TargetGroup::TopHP, TargetGroup::TopCI}) {
    EXPECT_EQ(a.share_of(g).content, b.share_of(g).content) << what;
    EXPECT_EQ(a.share_of(g).downloads, b.share_of(g).downloads) << what;
  }
}

void expect_profiles_eq(const ClassificationResult& a,
                        const ClassificationResult& b,
                        const std::string& what) {
  ASSERT_EQ(a.profiles.size(), b.profiles.size()) << what;
  for (std::size_t i = 0; i < a.profiles.size(); ++i) {
    const PublisherProfile& x = a.profiles[i];
    const PublisherProfile& y = b.profiles[i];
    ASSERT_EQ(x.username, y.username) << what << " profile " << i;
    EXPECT_EQ(x.cls, y.cls) << what << " " << x.username;
    EXPECT_EQ(x.domain, y.domain) << what << " " << x.username;
    EXPECT_EQ(x.in_textbox, y.in_textbox) << what << " " << x.username;
    EXPECT_EQ(x.in_filename, y.in_filename) << what << " " << x.username;
    EXPECT_EQ(x.in_payload, y.in_payload) << what << " " << x.username;
    EXPECT_EQ(x.ads, y.ads) << what << " " << x.username;
    EXPECT_EQ(x.donations, y.donations) << what << " " << x.username;
    EXPECT_EQ(x.vip, y.vip) << what << " " << x.username;
    EXPECT_EQ(x.signup, y.signup) << what << " " << x.username;
    EXPECT_EQ(x.private_tracker, y.private_tracker) << what << " " << x.username;
    EXPECT_EQ(x.ad_networks, y.ad_networks) << what << " " << x.username;
    EXPECT_EQ(x.content_count, y.content_count) << what << " " << x.username;
    EXPECT_EQ(x.download_count, y.download_count) << what << " " << x.username;
    EXPECT_EQ(x.dominant_language, y.dominant_language)
        << what << " " << x.username;
  }
}

void expect_box_eq(const BoxStats& a, const BoxStats& b,
                   const std::string& what) {
  EXPECT_EQ(a.min, b.min) << what;
  EXPECT_EQ(a.p25, b.p25) << what;
  EXPECT_EQ(a.median, b.median) << what;
  EXPECT_EQ(a.p75, b.p75) << what;
  EXPECT_EQ(a.max, b.max) << what;
  EXPECT_EQ(a.count, b.count) << what;
}

void expect_panel_eq(const std::vector<SeedingBox>& a,
                     const std::vector<SeedingBox>& b,
                     const std::string& what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].group, b[i].group) << what << " box " << i;
    EXPECT_EQ(a[i].publishers, b[i].publishers) << what << " box " << i;
    expect_box_eq(a[i].seeding_time_hours, b[i].seeding_time_hours, what);
    expect_box_eq(a[i].parallel_torrents, b[i].parallel_torrents, what);
    expect_box_eq(a[i].aggregated_session_hours, b[i].aggregated_session_hours,
                  what);
  }
}

void expect_demographics_eq(const DownloaderDemographics& a,
                            const DownloaderDemographics& b,
                            const std::string& what) {
  EXPECT_EQ(a.total_distinct_ips, b.total_distinct_ips) << what;
  EXPECT_EQ(a.located_ips, b.located_ips) << what;
  for (const auto& [rows_a, rows_b] :
       {std::pair{&a.by_country, &b.by_country},
        std::pair{&a.by_isp, &b.by_isp}}) {
    ASSERT_EQ(rows_a->size(), rows_b->size()) << what;
    for (std::size_t i = 0; i < rows_a->size(); ++i) {
      EXPECT_EQ((*rows_a)[i].label, (*rows_b)[i].label) << what << " row " << i;
      EXPECT_EQ((*rows_a)[i].downloaders, (*rows_b)[i].downloaders)
          << what << " " << (*rows_a)[i].label;
      EXPECT_EQ((*rows_a)[i].share, (*rows_b)[i].share)
          << what << " " << (*rows_a)[i].label;
    }
  }
}

class AnalysisReloadTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    ecosystem_ = new Ecosystem(small_scenario());
    ecosystem_->build();
    compact_ = new CompactDataset(compact_dataset(ecosystem_->crawl()));
    mmap_path_ = (std::filesystem::temp_directory_path() /
                  "btpub_analysis_reload_test.mmap")
                     .string();
    save_mmap_snapshot(*compact_, mmap_path_);
    mapped_ = new MappedDataset(mmap_path_);
  }
  static void TearDownTestSuite() {
    delete mapped_;
    delete compact_;
    delete ecosystem_;
    mapped_ = nullptr;
    compact_ = nullptr;
    ecosystem_ = nullptr;
    std::filesystem::remove(mmap_path_);
  }

  static const GeoDb& geo() { return ecosystem_->geo(); }

  static Ecosystem* ecosystem_;
  static CompactDataset* compact_;
  static MappedDataset* mapped_;
  static std::string mmap_path_;
};

Ecosystem* AnalysisReloadTest::ecosystem_ = nullptr;
CompactDataset* AnalysisReloadTest::compact_ = nullptr;
MappedDataset* AnalysisReloadTest::mapped_ = nullptr;
std::string AnalysisReloadTest::mmap_path_;

TEST_F(AnalysisReloadTest, EveryPassIdenticalOnMmapReload) {
  const CompactDatasetView memory = compact_->view();
  const CompactDatasetView mapped = mapped_->view();
  const IdentityAnalysis identity(memory, geo(), 100);
  expect_identity_eq(identity, IdentityAnalysis(mapped, geo(), 100), "identity");

  const WebsiteDirectory& websites = ecosystem_->websites();
  Rng rng_memory(123), rng_mapped(123);
  expect_profiles_eq(
      classify_top_publishers(memory, identity, websites, 2, rng_memory),
      classify_top_publishers(mapped, identity, websites, 2, rng_mapped),
      "classify");

  Rng panel_memory(99), panel_mapped(99);
  expect_panel_eq(seeding_panel(memory, identity, 50, panel_memory),
                  seeding_panel(mapped, identity, 50, panel_mapped),
                  "seeding panel");
  for (const UsernameStats& stats : identity.usernames()) {
    const SeedingMetrics a = seeding_metrics(memory, stats.torrents);
    const SeedingMetrics b = seeding_metrics(mapped, stats.torrents);
    ASSERT_EQ(a.avg_seeding_hours, b.avg_seeding_hours) << stats.username;
    ASSERT_EQ(a.avg_parallel_torrents, b.avg_parallel_torrents) << stats.username;
    ASSERT_EQ(a.aggregated_session_hours, b.aggregated_session_hours)
        << stats.username;
    ASSERT_EQ(a.torrents_with_data, b.torrents_with_data) << stats.username;
  }

  expect_demographics_eq(downloader_demographics(memory, geo()),
                         downloader_demographics(mapped, geo()), "demographics");

  const TopConsumptionStats a = top_publisher_consumption(memory, identity);
  const TopConsumptionStats b = top_publisher_consumption(mapped, identity);
  EXPECT_EQ(a.considered, b.considered);
  EXPECT_EQ(a.zero_downloads, b.zero_downloads);
  EXPECT_EQ(a.under_five_downloads, b.under_five_downloads);
}

}  // namespace
}  // namespace btpub
