// Population builder: counts, identities, IP allocation, websites.
#include "publisher/population.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

namespace btpub {
namespace {

class PopulationTest : public ::testing::Test {
 protected:
  PopulationTest() : catalog_(IspCatalog::standard()) {
    config_.regular_publishers = 200;
    config_.portal_owners = 12;
    config_.other_web = 10;
    config_.top_altruistic = 14;
    config_.fake_farms = 8;
    config_.fake_usernames = 60;
    config_.compromised_usernames = 5;
    Rng rng(42);
    population_ = build_population(config_, catalog_, rng);
  }

  PopulationConfig config_;
  IspCatalog catalog_;
  Population population_;
};

TEST_F(PopulationTest, ClassCountsMatchConfig) {
  const auto count = [&](PublisherClass cls) {
    return std::count_if(population_.publishers.begin(),
                         population_.publishers.end(),
                         [&](const Publisher& p) { return p.cls == cls; });
  };
  EXPECT_EQ(count(PublisherClass::Regular), 200);
  EXPECT_EQ(count(PublisherClass::TopPortalOwner), 12);
  EXPECT_EQ(count(PublisherClass::TopOtherWeb), 10);
  EXPECT_EQ(count(PublisherClass::TopAltruistic), 14);
  EXPECT_EQ(count(PublisherClass::FakeAntipiracy) +
                count(PublisherClass::FakeMalware),
            8);
  EXPECT_EQ(population_.publishers.size(), 200u + 12 + 10 + 14 + 8);
}

TEST_F(PopulationTest, UsernamesGloballyUnique) {
  std::set<std::string> all;
  std::size_t total = 0;
  for (const Publisher& p : population_.publishers) {
    for (const std::string& name : p.usernames) {
      all.insert(name);
      ++total;
    }
  }
  EXPECT_EQ(all.size(), total);
}

TEST_F(PopulationTest, OwnershipIndexComplete) {
  for (const Publisher& p : population_.publishers) {
    for (const std::string& name : p.usernames) {
      const auto it = population_.owner_of_username.find(name);
      ASSERT_NE(it, population_.owner_of_username.end()) << name;
      EXPECT_EQ(it->second, p.id);
    }
  }
}

TEST_F(PopulationTest, FakeFarmsShareThrowawayPool) {
  std::size_t throwaways = 0;
  std::size_t compromised = 0;
  for (const Publisher& p : population_.publishers) {
    if (!p.is_fake_farm()) continue;
    EXPECT_EQ(p.strategy, IpStrategy::FakeFarm);
    EXPECT_TRUE(p.hosted);
    throwaways += p.usernames.size() - (p.has_compromised_username ? 1 : 0);
    compromised += p.has_compromised_username ? 1 : 0;
  }
  EXPECT_EQ(throwaways, config_.fake_usernames);
  EXPECT_EQ(compromised, config_.compromised_usernames);
}

TEST_F(PopulationTest, NonFarmPublishersHaveOneUsername) {
  for (const Publisher& p : population_.publishers) {
    if (!p.is_fake_farm()) {
      EXPECT_EQ(p.usernames.size(), 1u) << static_cast<int>(p.cls);
    }
  }
}

TEST_F(PopulationTest, EndpointCountsMatchStrategy) {
  for (const Publisher& p : population_.publishers) {
    ASSERT_FALSE(p.endpoints.empty());
    switch (p.strategy) {
      case IpStrategy::SingleIp:
        EXPECT_EQ(p.endpoints.size(), 1u);
        break;
      case IpStrategy::HostingMulti:
        EXPECT_GE(p.endpoints.size(), 3u);
        EXPECT_LE(p.endpoints.size(), 9u);
        break;
      case IpStrategy::DynamicCommercial:
        EXPECT_GE(p.endpoints.size(), 10u);
        EXPECT_LE(p.endpoints.size(), 18u);
        break;
      case IpStrategy::MultiIsp:
        EXPECT_GE(p.endpoints.size(), 5u);
        EXPECT_LE(p.endpoints.size(), 10u);
        break;
      case IpStrategy::FakeFarm:
        EXPECT_LE(p.endpoints.size(), 3u);
        break;
    }
  }
}

TEST_F(PopulationTest, HostedPublishersLiveAtHostingProviders) {
  for (const Publisher& p : population_.publishers) {
    const auto loc = catalog_.db().lookup(p.endpoints.front().ip);
    ASSERT_TRUE(loc.has_value());
    if (p.hosted) {
      EXPECT_EQ(loc->isp_type, IspType::HostingProvider) << p.primary_isp;
    } else {
      EXPECT_EQ(loc->isp_type, IspType::CommercialIsp) << p.primary_isp;
    }
  }
}

TEST_F(PopulationTest, ProfitDrivenPublishersHaveWebsites) {
  for (const Publisher& p : population_.publishers) {
    if (is_profit_driven(p.cls)) {
      ASSERT_FALSE(p.promo_domain.empty());
      EXPECT_NE(p.promo_channels, PromoChannel::None);
      const Website* site = population_.websites.find(p.promo_domain);
      ASSERT_NE(site, nullptr) << p.promo_domain;
      if (p.cls == PublisherClass::TopPortalOwner) {
        EXPECT_EQ(site->type, BusinessType::PrivateBtPortal);
      } else {
        EXPECT_NE(site->type, BusinessType::PrivateBtPortal);
      }
      EXPECT_GT(site->value_usd, 0.0);
      EXPECT_GT(site->daily_income_usd, 0.0);
      EXPECT_GT(site->daily_visits, 0.0);
    } else {
      EXPECT_TRUE(p.promo_domain.empty()) << static_cast<int>(p.cls);
    }
  }
  EXPECT_EQ(population_.websites.size(),
            config_.portal_owners + config_.other_web);
}

TEST_F(PopulationTest, StickyConsumersExcludeHostedAndFakes) {
  std::set<std::uint32_t> sticky_ips;
  for (const auto& [endpoint, weight] : population_.sticky_consumers) {
    sticky_ips.insert(endpoint.ip.value());
  }
  for (const Publisher& p : population_.publishers) {
    if (p.is_fake_farm() || (is_top(p.cls) && p.hosted)) {
      for (const Endpoint& e : p.endpoints) {
        EXPECT_FALSE(sticky_ips.contains(e.ip.value()))
            << static_cast<int>(p.cls) << " " << e.ip.to_string() << ":" << e.port;
      }
    }
  }
  // Every regular publisher consumes.
  EXPECT_GE(population_.sticky_consumers.size(), config_.regular_publishers);
}

TEST_F(PopulationTest, RatesAndLifetimesPositive) {
  for (const Publisher& p : population_.publishers) {
    EXPECT_GT(p.window_rate, 0.0);
    EXPECT_GT(p.historical_rate, 0.0);
    EXPECT_GT(p.lifetime_days, 0.0);
    EXPECT_LE(p.lifetime_days, 1900.0);
  }
}

TEST_F(PopulationTest, RateScaleAppliesToTopAndFakeOnly) {
  PopulationConfig scaled = config_;
  scaled.rate_scale = 0.5;
  IspCatalog cat2 = IspCatalog::standard();
  Rng rng(42);
  const Population half = build_population(scaled, cat2, rng);
  for (std::size_t i = 0; i < half.publishers.size(); ++i) {
    const Publisher& p = half.publishers[i];
    if (p.cls == PublisherClass::Regular) {
      EXPECT_DOUBLE_EQ(p.window_rate, p.historical_rate);
    } else {
      EXPECT_NEAR(p.window_rate, p.historical_rate * 0.5, 1e-9);
    }
  }
}

TEST_F(PopulationTest, DeterministicGivenSeed) {
  IspCatalog cat_a = IspCatalog::standard();
  IspCatalog cat_b = IspCatalog::standard();
  Rng rng_a(7), rng_b(7);
  const Population a = build_population(config_, cat_a, rng_a);
  const Population b = build_population(config_, cat_b, rng_b);
  ASSERT_EQ(a.publishers.size(), b.publishers.size());
  for (std::size_t i = 0; i < a.publishers.size(); ++i) {
    EXPECT_EQ(a.publishers[i].usernames, b.publishers[i].usernames);
    EXPECT_EQ(a.publishers[i].endpoints.front(), b.publishers[i].endpoints.front());
    EXPECT_EQ(a.publishers[i].promo_domain, b.publishers[i].promo_domain);
  }
}

TEST_F(PopulationTest, SomePortalOwnersAreLanguageSpecific) {
  std::size_t non_english = 0, spanish = 0, total = 0;
  IspCatalog cat2 = IspCatalog::standard();
  PopulationConfig big = config_;
  big.portal_owners = 200;  // enough for a stable fraction
  Rng rng(11);
  const Population pop = build_population(big, cat2, rng);
  for (const Publisher& p : pop.publishers) {
    if (p.cls != PublisherClass::TopPortalOwner) continue;
    ++total;
    if (p.language != Language::English) ++non_english;
    if (p.language == Language::Spanish) ++spanish;
  }
  // §5.1: ~40% language-specific, ~66% of those Spanish.
  EXPECT_NEAR(non_english / static_cast<double>(total), 0.40, 0.10);
  EXPECT_NEAR(spanish / static_cast<double>(std::max<std::size_t>(non_english, 1)),
              0.66, 0.15);
}

}  // namespace
}  // namespace btpub
