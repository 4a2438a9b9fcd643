// Downloader/publisher demographics aggregation.
#include "analysis/demographics.hpp"
#include "dataset_fixture.hpp"

#include <gtest/gtest.h>

namespace btpub {
namespace {

class DemographicsTest : public DatasetFixture {
 protected:
  DemographicsTest() {
    const IspId fr = geo_.add_isp("HostFR", IspType::HostingProvider, "FR");
    const IspId us = geo_.add_isp("EyeballUS", IspType::CommercialIsp, "US");
    const IspId de = geo_.add_isp("EyeballDE", IspType::CommercialIsp, "DE");
    geo_.add_block(CidrBlock(IpAddress(10, 0, 0, 0), 8), fr, "Paris");
    geo_.add_block(CidrBlock(IpAddress(20, 0, 0, 0), 8), us, "Denver");
    geo_.add_block(CidrBlock(IpAddress(30, 0, 0, 0), 8), de, "Berlin");
    dataset_.style = DatasetStyle::Pb10;
  }

  void add_torrent(std::optional<IpAddress> publisher,
                   std::vector<IpAddress> downloaders) {
    TorrentRecord record;
    record.portal_id = static_cast<TorrentId>(dataset_.torrents.size());
    record.username = "u";
    record.username += std::to_string(record.portal_id);
    record.publisher_ip = publisher;
    dataset_.torrents.push_back(std::move(record));
    dataset_.downloaders.push_back(std::move(downloaders));
    dataset_.publisher_sightings.emplace_back();
  }

  GeoDb geo_;
};

TEST_F(DemographicsTest, CountsDistinctDownloadersByCountryAndIsp) {
  add_torrent(IpAddress(10, 0, 0, 1),
              {IpAddress(20, 0, 0, 1), IpAddress(20, 0, 0, 2),
               IpAddress(30, 0, 0, 1)});
  // Repeat downloader across torrents counted once.
  add_torrent(IpAddress(10, 0, 0, 1),
              {IpAddress(20, 0, 0, 1), IpAddress(99, 0, 0, 1)});  // 99.* unmapped
  const auto demo = downloader_demographics(view(), geo_, 10);
  EXPECT_EQ(demo.total_distinct_ips, 4u);
  EXPECT_EQ(demo.located_ips, 3u);
  ASSERT_EQ(demo.by_country.size(), 2u);
  EXPECT_EQ(demo.by_country[0].label, "US");
  EXPECT_EQ(demo.by_country[0].downloaders, 2u);
  EXPECT_NEAR(demo.by_country[0].share, 2.0 / 3.0, 1e-9);
  EXPECT_EQ(demo.by_country[1].label, "DE");
  ASSERT_EQ(demo.by_isp.size(), 2u);
  EXPECT_EQ(demo.by_isp[0].label, "EyeballUS");
}

TEST_F(DemographicsTest, IspsOfOneCountryFoldIntoOneCountryRow) {
  // A second US ISP: its downloaders join EyeballUS's in the US row.
  const IspId us2 = geo_.add_isp("CableUS", IspType::CommercialIsp, "US");
  geo_.add_block(CidrBlock(IpAddress(40, 0, 0, 0), 8), us2, "Austin");
  add_torrent(std::nullopt,
              {IpAddress(20, 0, 0, 1), IpAddress(40, 0, 0, 1),
               IpAddress(40, 0, 0, 2), IpAddress(30, 0, 0, 1),
               IpAddress(30, 0, 0, 2)});
  const auto demo = downloader_demographics(view(), geo_, 10);
  EXPECT_EQ(demo.located_ips, 5u);
  ASSERT_EQ(demo.by_country.size(), 2u);
  EXPECT_EQ(demo.by_country[0].label, "US");
  EXPECT_EQ(demo.by_country[0].downloaders, 3u);
  EXPECT_NEAR(demo.by_country[0].share, 3.0 / 5.0, 1e-9);
  EXPECT_EQ(demo.by_country[1].label, "DE");
  // CableUS and EyeballDE tie at 2: the tie orders by label.
  ASSERT_EQ(demo.by_isp.size(), 3u);
  EXPECT_EQ(demo.by_isp[0].label, "CableUS");
  EXPECT_EQ(demo.by_isp[0].downloaders, 2u);
  EXPECT_EQ(demo.by_isp[1].label, "EyeballDE");
  EXPECT_EQ(demo.by_isp[1].downloaders, 2u);
  EXPECT_EQ(demo.by_isp[2].label, "EyeballUS");
}

TEST_F(DemographicsTest, TiedCountriesOrderByLabel) {
  add_torrent(std::nullopt, {IpAddress(30, 0, 0, 1), IpAddress(20, 0, 0, 1),
                             IpAddress(10, 0, 0, 1)});
  const auto demo = downloader_demographics(view(), geo_, 10);
  ASSERT_EQ(demo.by_country.size(), 3u);
  EXPECT_EQ(demo.by_country[0].label, "DE");
  EXPECT_EQ(demo.by_country[1].label, "FR");
  EXPECT_EQ(demo.by_country[2].label, "US");
}

TEST_F(DemographicsTest, AllUnlocatedDownloadersGiveNoRows) {
  add_torrent(IpAddress(99, 0, 0, 7),
              {IpAddress(99, 0, 0, 1), IpAddress(99, 0, 0, 2),
               IpAddress(99, 0, 0, 1)});
  const auto demo = downloader_demographics(view(), geo_, 10);
  EXPECT_EQ(demo.total_distinct_ips, 2u);
  EXPECT_EQ(demo.located_ips, 0u);
  EXPECT_TRUE(demo.by_country.empty());
  EXPECT_TRUE(demo.by_isp.empty());
  EXPECT_TRUE(publisher_countries(view(), geo_, 10).empty());
}

TEST_F(DemographicsTest, TopKTruncates) {
  add_torrent(std::nullopt, {IpAddress(20, 0, 0, 1), IpAddress(30, 0, 0, 1)});
  const auto demo = downloader_demographics(view(), geo_, 1);
  EXPECT_EQ(demo.by_country.size(), 1u);
  EXPECT_EQ(demo.by_isp.size(), 1u);
}

TEST_F(DemographicsTest, PublisherCountriesWeightedByTorrents) {
  add_torrent(IpAddress(10, 0, 0, 1), {});
  add_torrent(IpAddress(10, 0, 0, 2), {});
  add_torrent(IpAddress(20, 0, 0, 9), {});
  add_torrent(std::nullopt, {});
  const auto rows = publisher_countries(view(), geo_, 10);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].label, "FR");
  EXPECT_EQ(rows[0].downloaders, 2u);
  EXPECT_NEAR(rows[0].share, 2.0 / 3.0, 1e-9);
}

TEST_F(DemographicsTest, EmptyDatasetIsZero) {
  const auto demo = downloader_demographics(view(), geo_, 10);
  EXPECT_EQ(demo.total_distinct_ips, 0u);
  EXPECT_TRUE(demo.by_country.empty());
  EXPECT_TRUE(publisher_countries(view(), geo_, 10).empty());
}

}  // namespace
}  // namespace btpub
