// Identity analysis: username/IP aggregation, fake detection, groups.
#include "analysis/groups.hpp"
#include "dataset_fixture.hpp"

#include <gtest/gtest.h>

namespace btpub {
namespace {

class GroupsTest : public DatasetFixture {
 protected:
  GroupsTest() {
    const IspId hosting = geo_.add_isp("HostCo", IspType::HostingProvider, "FR");
    const IspId eyeball = geo_.add_isp("EyeballCo", IspType::CommercialIsp, "US");
    geo_.add_block(CidrBlock(IpAddress(10, 0, 0, 0), 8), hosting, "Paris");
    geo_.add_block(CidrBlock(IpAddress(20, 0, 0, 0), 8), eyeball, "Denver");
    dataset_.style = DatasetStyle::Pb10;
    dataset_.window_end = days(30);
  }

  /// Adds a torrent by `username` from `ip` with `downloads` downloaders.
  void add(const std::string& username, std::optional<IpAddress> ip,
           std::size_t downloads,
           ContentCategory category = ContentCategory::Movies) {
    TorrentRecord record;
    record.portal_id = static_cast<TorrentId>(dataset_.torrents.size());
    record.username = username;
    record.publisher_ip = ip;
    record.category = category;
    record.title = username + "-" + std::to_string(record.portal_id);
    dataset_.torrents.push_back(std::move(record));
    std::vector<IpAddress> ips;
    for (std::size_t i = 0; i < downloads; ++i) {
      ips.push_back(IpAddress(0x30000000u +
                              static_cast<std::uint32_t>(dataset_.torrents.size()) * 1000 +
                              static_cast<std::uint32_t>(i)));
    }
    dataset_.downloaders.push_back(std::move(ips));
    dataset_.publisher_sightings.emplace_back();
  }

  void ban(const std::string& username) {
    UserPage page;
    page.username = username;
    page.banned = true;
    dataset_.user_pages[username] = std::move(page);
  }

  GeoDb geo_;
};

TEST_F(GroupsTest, AggregatesByUsername) {
  add("alice", IpAddress(20, 0, 0, 1), 10);
  add("alice", IpAddress(20, 0, 0, 1), 20);
  add("bob", std::nullopt, 5);
  const IdentityAnalysis identity(view(), geo_, 10);
  ASSERT_EQ(identity.usernames().size(), 2u);
  const UsernameStats* alice = identity.find_username("alice");
  ASSERT_NE(alice, nullptr);
  EXPECT_EQ(alice->content_count, 2u);
  EXPECT_EQ(alice->download_count, 30u);
  EXPECT_EQ(alice->ips.size(), 1u);  // deduped
  const UsernameStats* bob = identity.find_username("bob");
  ASSERT_NE(bob, nullptr);
  EXPECT_TRUE(bob->ips.empty());
  EXPECT_EQ(identity.find_username("carol"), nullptr);
  EXPECT_EQ(identity.total_content(), 3u);
  EXPECT_EQ(identity.total_downloads(), 35u);
}

TEST_F(GroupsTest, UsernamesSortedByContribution) {
  add("small", IpAddress(20, 0, 0, 1), 1);
  for (int i = 0; i < 5; ++i) add("big", IpAddress(20, 0, 0, 2), 1);
  const IdentityAnalysis identity(view(), geo_, 10);
  EXPECT_EQ(identity.usernames()[0].username, "big");
  EXPECT_EQ(identity.ips()[0].ip, IpAddress(20, 0, 0, 2));
}

TEST_F(GroupsTest, FakeFarmDetectedFromMultiUsernameBannedIp) {
  const IpAddress farm(10, 0, 0, 7);
  for (const char* name : {"x1", "x2", "x3", "x4"}) {
    add(name, farm, 2);
    ban(name);
  }
  add("legit", IpAddress(20, 0, 0, 1), 50);
  const IdentityAnalysis identity(view(), geo_, 10);
  EXPECT_TRUE(identity.fake_ips().contains(farm));
  for (const char* name : {"x1", "x2", "x3", "x4"}) {
    EXPECT_TRUE(identity.is_fake(name)) << name;
  }
  EXPECT_FALSE(identity.is_fake("legit"));
}

TEST_F(GroupsTest, FewUsernamesPerIpIsNotAFarm) {
  const IpAddress shared(20, 0, 0, 9);
  add("roomie1", shared, 2);
  add("roomie2", shared, 2);  // two usernames, nobody banned
  const IdentityAnalysis identity(view(), geo_, 10);
  EXPECT_FALSE(identity.fake_ips().contains(shared));
  EXPECT_FALSE(identity.is_fake("roomie1"));
}

TEST_F(GroupsTest, UnbannedMultiUserIpNotAFarm) {
  const IpAddress uni(10, 0, 0, 3);  // e.g. a university NAT
  for (const char* name : {"s1", "s2", "s3", "s4", "s5"}) add(name, uni, 1);
  const IdentityAnalysis identity(view(), geo_, 10);
  EXPECT_FALSE(identity.fake_ips().contains(uni));
}

TEST_F(GroupsTest, BannedUsernameIsFakeEvenWithoutIp) {
  add("ghostfake", std::nullopt, 3);
  ban("ghostfake");
  const IdentityAnalysis identity(view(), geo_, 10);
  EXPECT_TRUE(identity.is_fake("ghostfake"));
}

TEST_F(GroupsTest, FakeDetectionThresholdsConfigurable) {
  const IpAddress farm(10, 0, 0, 7);
  add("y1", farm, 1);
  add("y2", farm, 1);
  ban("y1");
  ban("y2");
  FakeDetectionConfig loose;
  loose.min_usernames_per_ip = 2;
  const IdentityAnalysis detects(view(), geo_, 10, loose);
  EXPECT_TRUE(detects.fake_ips().contains(farm));
  FakeDetectionConfig strict;
  strict.min_usernames_per_ip = 3;
  const IdentityAnalysis misses(view(), geo_, 10, strict);
  EXPECT_FALSE(misses.fake_ips().contains(farm));
}

TEST_F(GroupsTest, TopExcludesFakesAndCountsCompromised) {
  // Two prolific legit users, one prolific compromised account.
  for (int i = 0; i < 9; ++i) add("heavy1", IpAddress(10, 0, 0, 1), 5);
  for (int i = 0; i < 8; ++i) add("heavy2", IpAddress(20, 0, 0, 2), 5);
  for (int i = 0; i < 7; ++i) add("hacked", IpAddress(10, 0, 0, 9), 1);
  ban("hacked");
  add("tiny", IpAddress(20, 0, 0, 3), 1);
  const IdentityAnalysis identity(view(), geo_, 3);
  EXPECT_EQ(identity.top().size(), 2u);
  EXPECT_EQ(identity.compromised_in_top(), 1u);
  EXPECT_TRUE(identity.in_group("heavy1", TargetGroup::Top));
  EXPECT_FALSE(identity.in_group("hacked", TargetGroup::Top));
  EXPECT_FALSE(identity.in_group("tiny", TargetGroup::Top));
}

TEST_F(GroupsTest, TopSplitsIntoHostingAndCommercial) {
  for (int i = 0; i < 5; ++i) add("hosted", IpAddress(10, 0, 0, 1), 5);
  for (int i = 0; i < 5; ++i) add("homey", IpAddress(20, 0, 0, 1), 5);
  const IdentityAnalysis identity(view(), geo_, 5);
  EXPECT_TRUE(identity.in_group("hosted", TargetGroup::TopHP));
  EXPECT_FALSE(identity.in_group("hosted", TargetGroup::TopCI));
  EXPECT_TRUE(identity.in_group("homey", TargetGroup::TopCI));
  EXPECT_TRUE(identity.in_group("hosted", TargetGroup::All));
}

TEST_F(GroupsTest, SharesSumCorrectly) {
  const IpAddress farm(10, 0, 0, 7);
  for (const char* name : {"f1", "f2", "f3"}) {
    add(name, farm, 10);
    ban(name);
  }
  for (int i = 0; i < 6; ++i) add("star", IpAddress(10, 0, 0, 1), 20);
  add("nobody", IpAddress(20, 0, 0, 5), 1);
  const IdentityAnalysis identity(view(), geo_, 1);
  const auto fake = identity.share_of(TargetGroup::Fake);
  const auto top = identity.share_of(TargetGroup::Top);
  const auto all = identity.share_of(TargetGroup::All);
  EXPECT_NEAR(fake.content, 3.0 / 10.0, 1e-9);
  EXPECT_NEAR(fake.downloads, 30.0 / 151.0, 1e-9);
  EXPECT_NEAR(top.content, 6.0 / 10.0, 1e-9);
  EXPECT_NEAR(all.content, 1.0, 1e-9);
  EXPECT_NEAR(all.downloads, 1.0, 1e-9);
}

TEST_F(GroupsTest, TopIpBreakdownSeparatesFarms) {
  const IpAddress farm(10, 0, 0, 7);
  for (const char* name : {"z1", "z2", "z3"}) {
    add(name, farm, 1);
    ban(name);
  }
  for (int i = 0; i < 4; ++i) add("solo", IpAddress(20, 0, 0, 2), 1);
  const IdentityAnalysis identity(view(), geo_, 10);
  const auto breakdown = identity.top_ip_breakdown();
  EXPECT_EQ(breakdown.considered, 2u);
  EXPECT_EQ(breakdown.multi_username, 1u);
  EXPECT_EQ(breakdown.single_username, 1u);
}

TEST_F(GroupsTest, Mn08FallsBackToIps) {
  // Username-less dataset: torrents carry only IPs.
  TorrentRecord r;
  r.publisher_ip = IpAddress(10, 0, 0, 1);
  dataset_.torrents.push_back(r);
  dataset_.downloaders.emplace_back();
  dataset_.publisher_sightings.emplace_back();
  const IdentityAnalysis identity(view(), geo_, 10);
  EXPECT_TRUE(identity.usernames().empty());
  ASSERT_EQ(identity.ips().size(), 1u);
  EXPECT_EQ(identity.ips()[0].content_count, 1u);
}

TEST_F(GroupsTest, GroupNameRendering) {
  EXPECT_EQ(to_string(TargetGroup::TopHP), "Top-HP");
  EXPECT_EQ(to_string(TargetGroup::Fake), "Fake");
}

}  // namespace
}  // namespace btpub
