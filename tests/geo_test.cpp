// GeoIP database and ISP catalog tests.
#include <gtest/gtest.h>

#include <set>

#include "geo/geo_db.hpp"
#include "geo/isp_catalog.hpp"

namespace btpub {
namespace {

TEST(GeoDb, LookupWithinBlock) {
  GeoDb db;
  const IspId isp = db.add_isp("TestNet", IspType::CommercialIsp, "US");
  db.add_block(CidrBlock(IpAddress(10, 0, 0, 0), 16), isp, "Springfield");
  const auto loc = db.lookup(IpAddress(10, 0, 42, 42));
  ASSERT_TRUE(loc.has_value());
  EXPECT_EQ(loc->isp_name, "TestNet");
  EXPECT_EQ(loc->isp_type, IspType::CommercialIsp);
  EXPECT_EQ(loc->country, "US");
  EXPECT_EQ(loc->city, "Springfield");
}

TEST(GeoDb, MissLookup) {
  GeoDb db;
  const IspId isp = db.add_isp("TestNet", IspType::CommercialIsp, "US");
  db.add_block(CidrBlock(IpAddress(10, 0, 0, 0), 16), isp, "A");
  EXPECT_FALSE(db.lookup(IpAddress(10, 1, 0, 0)).has_value());
  EXPECT_FALSE(db.lookup(IpAddress(11, 0, 0, 0)).has_value());
}

TEST(GeoDb, LongestPrefixWins) {
  GeoDb db;
  const IspId coarse = db.add_isp("Coarse", IspType::CommercialIsp, "US");
  const IspId fine = db.add_isp("Fine", IspType::HostingProvider, "FR");
  db.add_block(CidrBlock(IpAddress(10, 0, 0, 0), 8), coarse, "Anywhere");
  db.add_block(CidrBlock(IpAddress(10, 5, 0, 0), 16), fine, "Roubaix");
  EXPECT_EQ(db.lookup(IpAddress(10, 5, 1, 1))->isp_name, "Fine");
  EXPECT_EQ(db.lookup(IpAddress(10, 6, 1, 1))->isp_name, "Coarse");
}

TEST(GeoDb, DuplicateIspNameThrows) {
  GeoDb db;
  db.add_isp("X", IspType::CommercialIsp, "US");
  EXPECT_THROW(db.add_isp("X", IspType::HostingProvider, "FR"),
               std::invalid_argument);
}

TEST(GeoDb, UnknownIspIdOnBlockThrows) {
  GeoDb db;
  EXPECT_THROW(db.add_block(CidrBlock(IpAddress(1, 0, 0, 0), 16), 99, "c"),
               std::invalid_argument);
}

TEST(GeoDb, FindIspByName) {
  GeoDb db;
  const IspId a = db.add_isp("Alpha", IspType::CommercialIsp, "US");
  EXPECT_EQ(db.find_isp("Alpha"), a);
  EXPECT_EQ(db.find_isp("Beta"), std::nullopt);
  EXPECT_EQ(db.isp(a).name, "Alpha");
}

TEST(IspTypeNames, Rendering) {
  EXPECT_EQ(to_string(IspType::HostingProvider), "Hosting Provider");
  EXPECT_EQ(to_string(IspType::CommercialIsp), "Commercial ISP");
}

// --- Standard catalog structure (the synthetic Internet). ---

TEST(IspCatalog, PaperActorsPresent) {
  const IspCatalog cat = IspCatalog::standard();
  for (const char* name : {"OVH", "Comcast", "tzulo", "FDCservers", "4RWEB",
                           "SoftLayer Tech.", "Telefonica", "Virgin Media"}) {
    EXPECT_NO_THROW(cat.pool(name)) << name;
  }
  EXPECT_THROW(cat.pool("NoSuchNet"), std::out_of_range);
}

TEST(IspCatalog, HostingVsCommercialStructure) {
  const IspCatalog cat = IspCatalog::standard();
  // OVH: handful of /16s; Comcast: hundreds.
  EXPECT_EQ(cat.pool("OVH").blocks().size(), 7u);
  EXPECT_EQ(cat.pool("Comcast").blocks().size(), 300u);
  const auto loc = cat.db().lookup(cat.pool("OVH").blocks().front().base());
  ASSERT_TRUE(loc.has_value());
  EXPECT_EQ(loc->isp_type, IspType::HostingProvider);
  EXPECT_EQ(loc->country, "FR");
}

TEST(IspCatalog, BlocksDoNotOverlapAcrossIsps) {
  const IspCatalog cat = IspCatalog::standard();
  // Any address maps to exactly the ISP whose block covers it; sample OVH
  // and Comcast extremes.
  for (const auto& block : cat.pool("OVH").blocks()) {
    EXPECT_EQ(cat.db().lookup(block.at(1))->isp_name, "OVH");
  }
  EXPECT_EQ(cat.db().lookup(cat.pool("Comcast").blocks()[299].at(5))->isp_name,
            "Comcast");
}

TEST(IspCatalog, ServerAllocationStripesAcrossBlocksAndCities) {
  IspCatalog cat = IspCatalog::standard();
  IpPool& ovh = cat.pool("OVH");
  std::set<std::uint16_t> prefixes;
  std::set<std::string> cities;
  std::set<std::uint32_t> addresses;
  for (int i = 0; i < 40; ++i) {
    const IpAddress ip = ovh.allocate_server();
    addresses.insert(ip.value());
    prefixes.insert(Prefix16(ip).value());
    cities.insert(std::string(cat.db().lookup(ip)->city));
  }
  EXPECT_EQ(addresses.size(), 40u);  // all distinct
  EXPECT_EQ(prefixes.size(), 7u);    // spans every OVH /16
  EXPECT_EQ(cities.size(), 4u);      // Roubaix, Paris, Gravelines, Strasbourg
}

TEST(IspCatalog, ResidentialAddressesSpreadAcrossPrefixes) {
  const IspCatalog cat = IspCatalog::standard();
  Rng rng(3);
  std::set<std::uint16_t> prefixes;
  for (int i = 0; i < 400; ++i) {
    const IpAddress ip = cat.pool("Comcast").random_residential(rng);
    EXPECT_EQ(cat.db().lookup(ip)->isp_name, "Comcast");
    prefixes.insert(Prefix16(ip).value());
  }
  EXPECT_GT(prefixes.size(), 150u);  // far more scattered than any hoster
}

TEST(IspCatalog, EyeballListNonEmptyAndResolvable) {
  const IspCatalog cat = IspCatalog::standard(10);
  EXPECT_GE(cat.eyeball_names().size(), 10u);
  Rng rng(4);
  for (const auto& name : cat.eyeball_names()) {
    const IpAddress ip = cat.pool(name).random_residential(rng);
    ASSERT_TRUE(cat.db().lookup(ip).has_value()) << name;
  }
}

}  // namespace
}  // namespace btpub
