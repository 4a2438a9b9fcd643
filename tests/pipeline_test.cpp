// Remaining analysis stages: contribution curve, ISP tables, content-type
// mix, popularity boxes, longitudinal table, income table, money flows.
#include <gtest/gtest.h>

#include "analysis/classify.hpp"
#include "analysis/content_type.hpp"
#include "analysis/contribution.hpp"
#include "analysis/income.hpp"
#include "analysis/isp.hpp"
#include "analysis/longitudinal.hpp"
#include "analysis/popularity.hpp"
#include "dataset_fixture.hpp"

namespace btpub {
namespace {

class PipelineTest : public DatasetFixture {
 protected:
  PipelineTest() {
    const IspId hosting = geo_.add_isp("HostCo", IspType::HostingProvider, "FR");
    const IspId eyeball = geo_.add_isp("EyeballCo", IspType::CommercialIsp, "US");
    geo_.add_block(CidrBlock(IpAddress(10, 0, 0, 0), 16), hosting, "Paris");
    geo_.add_block(CidrBlock(IpAddress(10, 1, 0, 0), 16), hosting, "Roubaix");
    for (std::uint8_t i = 0; i < 20; ++i) {
      geo_.add_block(CidrBlock(IpAddress(20, i, 0, 0), 16), eyeball,
                     "City" + std::to_string(i));
    }
    dataset_.style = DatasetStyle::Pb10;
    dataset_.window_end = days(30);

    Website portal;
    portal.domain = "megaseed.com";
    portal.type = BusinessType::PrivateBtPortal;
    portal.requires_registration = true;
    portal.value_usd = 40000;
    portal.daily_income_usd = 60;
    portal.daily_visits = 25000;
    portal.has_ads = true;
    portal.ad_networks = {"adserve-one.example", "clickbarn.example"};
    websites_.add(portal);
  }

  void add(const std::string& username, std::optional<IpAddress> ip,
           std::size_t downloads, ContentCategory category,
           const std::string& promo = "") {
    TorrentRecord record;
    record.portal_id = static_cast<TorrentId>(dataset_.torrents.size());
    record.username = username;
    record.publisher_ip = ip;
    record.category = category;
    record.title = username + std::to_string(record.portal_id);
    if (!promo.empty()) record.textbox = "see http://www." + promo + "/";
    dataset_.torrents.push_back(std::move(record));
    std::vector<IpAddress> ips;
    for (std::size_t i = 0; i < downloads; ++i) {
      ips.push_back(IpAddress(0x20000100u +
                              static_cast<std::uint32_t>(dataset_.torrents.size() * 251 + i)));
    }
    dataset_.downloaders.push_back(std::move(ips));
    dataset_.publisher_sightings.emplace_back();
  }

  void add_user_page(const std::string& username, SimTime first, SimTime last,
                     std::size_t count) {
    UserPage page;
    page.username = username;
    page.publish_times.push_back(first);
    for (std::size_t i = 1; i + 1 < count; ++i) {
      page.publish_times.push_back(first + static_cast<SimTime>(i) *
                                               (last - first) /
                                               static_cast<SimTime>(count));
    }
    page.publish_times.push_back(last);
    dataset_.user_pages[username] = std::move(page);
  }

  GeoDb geo_;
  WebsiteDirectory websites_;
};

TEST_F(PipelineTest, ContributionCurveByUsername) {
  for (int i = 0; i < 9; ++i) add("whale", IpAddress(10, 0, 0, 1), 1,
                                  ContentCategory::Movies);
  for (int i = 0; i < 9; ++i) {
    add("minnow" + std::to_string(i), IpAddress(20, 0, 0, 1), 1,
        ContentCategory::Movies);
  }
  const IdentityAnalysis identity(view(), geo_, 5);
  const std::vector<double> xs{10.0, 100.0};
  const auto curve = contribution_curve(identity, xs);
  EXPECT_EQ(curve.publishers, 10u);
  EXPECT_EQ(curve.contents, 18u);
  // Top 10% of 10 publishers = the whale with half the content.
  EXPECT_NEAR(curve.points[0].content_percent, 50.0, 1e-9);
  EXPECT_NEAR(curve.points[1].content_percent, 100.0, 1e-9);
  EXPECT_GT(curve.gini, 0.3);
}

TEST_F(PipelineTest, TopConsumptionCountsTopIpDownloads) {
  add("pub1", IpAddress(10, 0, 0, 1), 0, ContentCategory::Movies);
  add("pub2", IpAddress(10, 0, 0, 2), 0, ContentCategory::Movies);
  // pub2's IP shows up as a downloader of pub1's torrent.
  dataset_.downloaders[0].push_back(IpAddress(10, 0, 0, 2));
  const IdentityAnalysis identity(view(), geo_, 10);
  const auto stats = top_publisher_consumption(view(), identity, 10);
  EXPECT_EQ(stats.considered, 2u);
  EXPECT_EQ(stats.zero_downloads, 1u);       // pub1 downloads nothing
  EXPECT_EQ(stats.under_five_downloads, 2u); // both under five
}

TEST_F(PipelineTest, IspShareTable) {
  for (int i = 0; i < 6; ++i) add("h", IpAddress(10, 0, 0, 1), 2,
                                  ContentCategory::Movies);
  for (int i = 0; i < 3; ++i) add("c", IpAddress(20, 3, 0, 1), 2,
                                  ContentCategory::Movies);
  add("anon", std::nullopt, 2, ContentCategory::Movies);  // excluded
  const auto rows = top_publisher_isps(view(), geo_, 10);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].isp, "HostCo");
  EXPECT_EQ(rows[0].type, IspType::HostingProvider);
  EXPECT_NEAR(rows[0].content_share, 6.0 / 9.0, 1e-9);
  EXPECT_EQ(rows[0].torrents, 6u);
  EXPECT_EQ(rows[1].isp, "EyeballCo");
  EXPECT_NEAR(rows[1].publisher_share, 0.5, 1e-9);
}

TEST_F(PipelineTest, IspFeederProfileCountsStructure) {
  add("a", IpAddress(10, 0, 0, 1), 1, ContentCategory::Movies);
  add("a", IpAddress(10, 0, 0, 1), 1, ContentCategory::Movies);
  add("b", IpAddress(10, 1, 0, 2), 1, ContentCategory::Movies);
  add("c", IpAddress(20, 5, 0, 3), 1, ContentCategory::Movies);
  const auto profile = isp_feeder_profile(view(), geo_, "HostCo");
  EXPECT_EQ(profile.fed_torrents, 3u);
  EXPECT_EQ(profile.distinct_ips, 2u);
  EXPECT_EQ(profile.distinct_prefixes16, 2u);
  EXPECT_EQ(profile.distinct_locations, 2u);  // Paris + Roubaix
}

TEST_F(PipelineTest, ConsumersFromIspExcludesPublishers) {
  add("a", IpAddress(10, 0, 0, 1), 0, ContentCategory::Movies);
  // A genuine hosting-provider consumer and the publisher's own address.
  dataset_.downloaders[0].push_back(IpAddress(10, 0, 0, 50));
  dataset_.downloaders[0].push_back(IpAddress(10, 0, 0, 1));
  EXPECT_EQ(consumers_from_isp(view(), geo_, "HostCo", true), 1u);
  EXPECT_EQ(consumers_from_isp(view(), geo_, "HostCo", false), 2u);
  EXPECT_EQ(consumers_from_isp(view(), geo_, "EyeballCo"), 0u);
}

TEST_F(PipelineTest, ConsumersFromUnknownIspIsZero) {
  add("a", IpAddress(10, 0, 0, 1), 3, ContentCategory::Movies);
  dataset_.downloaders[0].push_back(IpAddress(10, 0, 0, 50));
  EXPECT_EQ(consumers_from_isp(view(), geo_, "NoSuchIsp"), 0u);
  EXPECT_EQ(consumers_from_isp(view(), geo_, "NoSuchIsp", false), 0u);
}

TEST_F(PipelineTest, TopHostingShareCountsNamedIsp) {
  for (int i = 0; i < 5; ++i) add("hostpub", IpAddress(10, 0, 0, 9), 1,
                                  ContentCategory::Movies);
  for (int i = 0; i < 4; ++i) add("homepub", IpAddress(20, 1, 0, 9), 1,
                                  ContentCategory::Movies);
  const IdentityAnalysis identity(view(), geo_, 10);
  const auto share = top_hosting_share(identity, geo_, "HostCo", 10);
  EXPECT_EQ(share.considered, 2u);
  EXPECT_EQ(share.at_hosting, 1u);
  EXPECT_EQ(share.at_named_isp, 1u);
}

TEST_F(PipelineTest, ContentTypeMixSumsToOne) {
  add("u", IpAddress(10, 0, 0, 1), 1, ContentCategory::Movies);
  add("u", IpAddress(10, 0, 0, 1), 1, ContentCategory::Porn);
  add("u", IpAddress(10, 0, 0, 1), 1, ContentCategory::Music);
  add("u", IpAddress(10, 0, 0, 1), 1, ContentCategory::Ebooks);
  const IdentityAnalysis identity(view(), geo_, 5);
  const auto mix = content_type_mix(view(), identity, TargetGroup::All);
  EXPECT_EQ(mix.contents, 4u);
  double sum = 0;
  for (double f : mix.fractions) sum += f;
  EXPECT_NEAR(sum, 1.0, 1e-9);
  // Movies + Porn both map to coarse Video.
  EXPECT_NEAR(mix.of(CoarseCategory::Video), 0.5, 1e-9);
  EXPECT_NEAR(mix.of(CoarseCategory::Books), 0.25, 1e-9);
  const auto panel = content_type_panel(view(), identity);
  EXPECT_EQ(panel.size(), 5u);
}

TEST_F(PipelineTest, PopularityBoxPerGroup) {
  for (int i = 0; i < 4; ++i) add("star", IpAddress(10, 0, 0, 1), 50,
                                  ContentCategory::Movies);
  add("casual1", IpAddress(20, 0, 0, 1), 4, ContentCategory::Movies);
  add("casual2", IpAddress(20, 0, 0, 2), 6, ContentCategory::Movies);
  const IdentityAnalysis identity(view(), geo_, 1);
  Rng rng(1);
  const auto all = popularity_box(identity, TargetGroup::All, 0, rng);
  EXPECT_EQ(all.box.count, 3u);
  const auto top = popularity_box(identity, TargetGroup::Top, 0, rng);
  EXPECT_EQ(top.box.count, 1u);
  EXPECT_DOUBLE_EQ(top.box.median, 50.0);
  const auto panel = popularity_panel(identity, 2, rng);
  EXPECT_EQ(panel.size(), 5u);
  EXPECT_EQ(panel[0].box.count, 2u);  // "All" subsampled to 2
}

TEST_F(PipelineTest, LongitudinalTableFromUserPages) {
  for (int i = 0; i < 6; ++i) add("portalpub", IpAddress(10, 0, 0, 1), 3,
                                  ContentCategory::Movies, "megaseed.com");
  for (int i = 0; i < 5; ++i) add("plainpub", IpAddress(20, 0, 0, 1), 3,
                                  ContentCategory::Music);
  add_user_page("portalpub", -days(400), 0, 120);
  add_user_page("plainpub", -days(100), 0, 20);
  const IdentityAnalysis identity(view(), geo_, 2);
  Rng rng(2);
  const auto classification =
      classify_top_publishers(view(), identity, websites_, 5, rng);
  const auto histories = publisher_histories(view(), classification);
  ASSERT_EQ(histories.size(), 2u);
  const auto rows = longitudinal_table(view(), classification);
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[0].cls, BusinessClass::BtPortal);
  EXPECT_EQ(rows[0].publishers, 1u);
  EXPECT_NEAR(rows[0].lifetime_days.avg, 400.0, 1.0);
  EXPECT_NEAR(rows[0].publish_rate.avg, 120.0 / 400.0, 0.01);
  EXPECT_EQ(rows[2].cls, BusinessClass::Altruistic);
  EXPECT_EQ(rows[2].publishers, 1u);
  EXPECT_NEAR(rows[2].lifetime_days.avg, 100.0, 1.0);
}

TEST_F(PipelineTest, IncomeTableUsesPanelAverages) {
  for (int i = 0; i < 6; ++i) add("portalpub", IpAddress(10, 0, 0, 1), 3,
                                  ContentCategory::Movies, "megaseed.com");
  const IdentityAnalysis identity(view(), geo_, 1);
  Rng rng(3);
  const auto classification =
      classify_top_publishers(view(), identity, websites_, 5, rng);
  const auto rows =
      income_table(classification, websites_, AppraisalPanel::standard());
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].cls, BusinessClass::BtPortal);
  EXPECT_EQ(rows[0].sites, 1u);
  // Estimates live within the noise envelope of the true values.
  EXPECT_GT(rows[0].value_usd.avg, 40000 * 0.3);
  EXPECT_LT(rows[0].value_usd.avg, 40000 * 3.0);
  EXPECT_EQ(rows[1].cls, BusinessClass::OtherWeb);
  EXPECT_EQ(rows[1].sites, 0u);
}

TEST_F(PipelineTest, MoneyFlowsAggregates) {
  for (int i = 0; i < 6; ++i) add("portalpub", IpAddress(10, 0, 0, 1), 3,
                                  ContentCategory::Movies, "megaseed.com");
  add("other", IpAddress(10, 0, 0, 2), 1, ContentCategory::Movies);
  const IdentityAnalysis identity(view(), geo_, 2);
  Rng rng(4);
  const auto classification =
      classify_top_publishers(view(), identity, websites_, 5, rng);
  const auto flows =
      money_flows(view(), classification, websites_, AppraisalPanel::standard(),
                  geo_, "HostCo", 300.0);
  EXPECT_GT(flows.publishers_income_per_day_usd, 0.0);
  EXPECT_EQ(flows.hosting_servers, 2u);  // two HostCo publisher addresses
  EXPECT_DOUBLE_EQ(flows.hosting_income_per_month_eur, 600.0);
  EXPECT_EQ(flows.publishers_with_ads, 1u);
  EXPECT_EQ(flows.ad_networks, 2u);
}

}  // namespace
}  // namespace btpub
