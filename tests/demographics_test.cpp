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
