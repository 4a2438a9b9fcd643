// Class profiles and the title/username/domain generators.
#include <gtest/gtest.h>

#include <numeric>
#include <set>

#include "publisher/names.hpp"
#include "publisher/profile.hpp"
#include "publisher/publisher.hpp"
#include "util/strings.hpp"

namespace btpub {
namespace {

TEST(ClassProfiles, CategoryWeightsNormalised) {
  for (const PublisherClass cls :
       {PublisherClass::Regular, PublisherClass::TopAltruistic,
        PublisherClass::TopPortalOwner, PublisherClass::TopOtherWeb,
        PublisherClass::FakeAntipiracy, PublisherClass::FakeMalware}) {
    const ClassProfile& profile = class_profile(cls);
    const double sum = std::accumulate(profile.category_weights.begin(),
                                       profile.category_weights.end(), 0.0);
    EXPECT_NEAR(sum, 1.0, 0.02) << static_cast<int>(cls);
    EXPECT_EQ(profile.cls, cls);
    EXPECT_GT(profile.rate_median, 0.0);
    EXPECT_GT(profile.popularity_median, 0.0);
  }
}

TEST(ClassProfiles, ClassPredicates) {
  EXPECT_TRUE(is_fake(PublisherClass::FakeAntipiracy));
  EXPECT_TRUE(is_fake(PublisherClass::FakeMalware));
  EXPECT_FALSE(is_fake(PublisherClass::TopPortalOwner));
  EXPECT_TRUE(is_top(PublisherClass::TopAltruistic));
  EXPECT_FALSE(is_top(PublisherClass::Regular));
  EXPECT_TRUE(is_profit_driven(PublisherClass::TopOtherWeb));
  EXPECT_FALSE(is_profit_driven(PublisherClass::TopAltruistic));
}

TEST(ClassProfiles, FakeSeedsUntilRemoved) {
  EXPECT_TRUE(class_profile(PublisherClass::FakeAntipiracy).seeding.seed_until_removed);
  EXPECT_TRUE(class_profile(PublisherClass::FakeMalware).seeding.seed_until_removed);
  EXPECT_FALSE(class_profile(PublisherClass::Regular).seeding.seed_until_removed);
}

TEST(ClassProfiles, SeedingOrderingAcrossClasses) {
  // Hosted profit-driven publishers commit to longer minimum seeding than
  // regular users (Fig. 4a ordering is generated from these knobs).
  EXPECT_GT(class_profile(PublisherClass::TopPortalOwner).seeding.min_seed_time,
            class_profile(PublisherClass::Regular).seeding.min_seed_time);
  EXPECT_GT(class_profile(PublisherClass::FakeMalware).seeding.max_seed_time,
            class_profile(PublisherClass::TopPortalOwner).seeding.max_seed_time);
}

TEST(DrawCategory, FollowsWeights) {
  const ClassProfile& other_web = class_profile(PublisherClass::TopOtherWeb);
  Rng rng(1);
  int porn = 0;
  const int n = 5000;
  for (int i = 0; i < n; ++i) {
    if (draw_category(other_web, rng) == ContentCategory::Porn) ++porn;
  }
  // §5.1: 70% of other-web publishers' content is porn.
  EXPECT_NEAR(porn / static_cast<double>(n), 0.70, 0.03);
}

TEST(DrawCategory, NeverDrawsZeroWeightCategory) {
  const ClassProfile& fake = class_profile(PublisherClass::FakeAntipiracy);
  ASSERT_EQ(fake.category_weights[4], 0.0);  // Audiobooks
  Rng rng(2);
  for (int i = 0; i < 3000; ++i) {
    EXPECT_NE(draw_category(fake, rng), ContentCategory::Audiobooks);
  }
}

TEST(PromoChannels, BitmaskOps) {
  const PromoChannel both = PromoChannel::Textbox | PromoChannel::FilenameSuffix;
  EXPECT_TRUE(has_channel(both, PromoChannel::Textbox));
  EXPECT_TRUE(has_channel(both, PromoChannel::FilenameSuffix));
  EXPECT_FALSE(has_channel(both, PromoChannel::PayloadTextFile));
  EXPECT_FALSE(has_channel(PromoChannel::None, PromoChannel::Textbox));
}

TEST(Names, ReleaseTitlesLookScene) {
  Rng rng(3);
  const std::string movie = make_release_title(ContentCategory::Movies, rng);
  const std::string lower = to_lower(movie);
  EXPECT_TRUE(lower.find("rip") != std::string::npos ||
              lower.find("x264") != std::string::npos)
      << movie;
  const std::string tv = make_release_title(ContentCategory::TvShows, rng);
  EXPECT_NE(tv.find(".S0"), std::string::npos) << tv;
  EXPECT_NE(tv.find("E"), std::string::npos);
  const std::string sw = make_release_title(ContentCategory::Software, rng);
  EXPECT_NE(sw.find("Keygen"), std::string::npos) << sw;
}

TEST(Names, EveryCategoryProducesNonEmptyTitles) {
  Rng rng(4);
  for (const ContentCategory c : kAllCategories) {
    for (int i = 0; i < 20; ++i) {
      EXPECT_FALSE(make_release_title(c, rng).empty());
      EXPECT_FALSE(make_catchy_title(c, rng).empty());
    }
  }
}

TEST(Names, CatchyTitlesNameHotReleases) {
  Rng rng(5);
  // Catchy titles are drawn from a small hot list, so duplicates across
  // draws are frequent — that is the point (decoys for hot content).
  std::set<std::string> titles;
  for (int i = 0; i < 100; ++i) {
    titles.insert(make_catchy_title(ContentCategory::Movies, rng));
  }
  EXPECT_LT(titles.size(), 60u);
}

TEST(Names, HackedUsernamesLookRandom) {
  Rng rng(6);
  std::set<std::string> names;
  for (int i = 0; i < 200; ++i) {
    const std::string name = make_hacked_username(rng);
    EXPECT_GE(name.size(), 6u);
    EXPECT_LE(name.size(), 10u);
    names.insert(name);
  }
  EXPECT_GT(names.size(), 195u);  // essentially no collisions
}

TEST(Names, DomainsHaveTlds) {
  Rng rng(7);
  for (int i = 0; i < 50; ++i) {
    const std::string domain = make_domain("", rng);
    const bool has_tld = ends_with(domain, ".com") || ends_with(domain, ".net") ||
                         ends_with(domain, ".org") || ends_with(domain, ".info") ||
                         ends_with(domain, ".to");
    EXPECT_TRUE(has_tld) << domain;
  }
}

TEST(Names, BrandHintFlowsIntoDomain) {
  Rng rng(8);
  const std::string domain = make_domain("UltraTorrents", rng);
  EXPECT_TRUE(starts_with(domain, "ultratorrents")) << domain;
}

// --- plan_seed_sessions behaviour ---

constexpr SimTime kNever = std::numeric_limits<SimTime>::max();

SeedingPolicy basic_policy() {
  SeedingPolicy p;
  p.leave_after_other_seeders = 1;
  p.min_seed_time = hours(1);
  p.max_seed_time = hours(10);
  p.mean_extra_seed = hours(1);
  p.daily_online_hours = 24.0;
  p.delayed_start_prob = 0.0;
  return p;
}

TEST(PlanSeedSessions, LeavesAfterEnoughSeeders) {
  Rng rng(9);
  const auto sessions = plan_seed_sessions(basic_policy(), /*birth=*/0,
                                           /*enough=*/hours(2), /*removal=*/-1,
                                           /*hard_end=*/days(30), 0, rng);
  ASSERT_EQ(sessions.size(), 1u);
  EXPECT_EQ(sessions[0].start, 0);
  EXPECT_GE(sessions[0].end, hours(2));          // at least until handover
  EXPECT_LE(sessions[0].end, hours(10));         // capped by max
}

TEST(PlanSeedSessions, NoHandoverSeedsToMax) {
  Rng rng(10);
  const auto sessions = plan_seed_sessions(basic_policy(), 0, kNever, -1,
                                           days(30), 0, rng);
  ASSERT_EQ(sessions.size(), 1u);
  EXPECT_EQ(sessions[0].end, hours(10));
}

TEST(PlanSeedSessions, MinSeedTimeEnforced) {
  Rng rng(11);
  SeedingPolicy p = basic_policy();
  p.min_seed_time = hours(4);
  const auto sessions =
      plan_seed_sessions(p, 0, /*enough=*/minutes(5), -1, days(30), 0, rng);
  ASSERT_EQ(sessions.size(), 1u);
  EXPECT_GE(sessions[0].end, hours(4));
}

TEST(PlanSeedSessions, FakeSeedsUntilRemovalPlusLinger) {
  Rng rng(12);
  SeedingPolicy p = basic_policy();
  p.seed_until_removed = true;
  p.mean_post_removal_linger = hours(2);
  p.max_seed_time = days(6);
  const SimTime removal = days(2);
  const auto sessions = plan_seed_sessions(p, 0, kNever, removal, days(30), 0, rng);
  ASSERT_EQ(sessions.size(), 1u);
  EXPECT_GE(sessions[0].end, removal);
  EXPECT_LE(sessions[0].end, removal + days(2));
}

TEST(PlanSeedSessions, FakeNeverRemovedUsesCap) {
  Rng rng(13);
  SeedingPolicy p = basic_policy();
  p.seed_until_removed = true;
  p.max_seed_time = days(3);
  const auto sessions = plan_seed_sessions(p, 100, kNever, -1, days(30), 0, rng);
  ASSERT_EQ(sessions.size(), 1u);
  EXPECT_EQ(sessions[0].end, 100 + days(3));
}

TEST(PlanSeedSessions, HardEndTruncates) {
  Rng rng(14);
  const auto sessions = plan_seed_sessions(basic_policy(), 0, kNever, -1,
                                           hours(3), 0, rng);
  ASSERT_EQ(sessions.size(), 1u);
  EXPECT_EQ(sessions[0].end, hours(3));
}

TEST(PlanSeedSessions, HardEndBeforeBirthYieldsNothing) {
  Rng rng(15);
  EXPECT_TRUE(plan_seed_sessions(basic_policy(), hours(5), kNever, -1, hours(4),
                                 0, rng)
                  .empty());
}

TEST(PlanSeedSessions, AvailabilitySplitsIntoDailySessions) {
  Rng rng(16);
  SeedingPolicy p = basic_policy();
  p.daily_online_hours = 8.0;
  p.max_seed_time = hours(60);
  const auto sessions = plan_seed_sessions(p, 0, kNever, -1, days(30), 0, rng);
  ASSERT_GE(sessions.size(), 2u);
  for (std::size_t i = 0; i < sessions.size(); ++i) {
    EXPECT_LE(sessions[i].length(), hours(8));
    if (i > 0) {
      EXPECT_GT(sessions[i].start, sessions[i - 1].end);
    }
  }
}

TEST(PlanSeedSessions, DelayedStartShiftsSessions) {
  SeedingPolicy p = basic_policy();
  p.delayed_start_prob = 1.0;
  p.mean_start_delay = hours(2);
  double total_delay = 0;
  for (std::uint64_t seed = 0; seed < 50; ++seed) {
    Rng rng(seed);
    const auto sessions = plan_seed_sessions(p, 0, kNever, -1, days(30), 0, rng);
    ASSERT_FALSE(sessions.empty());
    EXPECT_GE(sessions[0].start, 0);
    total_delay += static_cast<double>(sessions[0].start);
  }
  EXPECT_NEAR(total_delay / 50.0, static_cast<double>(hours(2)), hours(1));
}

}  // namespace
}  // namespace btpub
