// Scenario presets: every preset must be internally consistent and match
// the dataset style it claims to emulate.
#include "core/scenario.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "swarm/generator.hpp"

namespace btpub {
namespace {

TEST(Scenarios, Pb10Preset) {
  const ScenarioConfig config = ScenarioConfig::pb10(7);
  EXPECT_EQ(config.name, "pb10");
  EXPECT_EQ(config.seed, 7u);
  EXPECT_EQ(config.crawler.style, DatasetStyle::Pb10);
  EXPECT_EQ(config.window, days(30));
}

TEST(Scenarios, Pb09IsSingleQueryStyle) {
  const ScenarioConfig config = ScenarioConfig::pb09();
  EXPECT_EQ(config.crawler.style, DatasetStyle::Pb09);
  EXPECT_EQ(config.window, days(21));
}

TEST(Scenarios, Mn08HasNoUsernames) {
  const ScenarioConfig config = ScenarioConfig::mn08();
  EXPECT_EQ(config.crawler.style, DatasetStyle::Mn08);
  EXPECT_EQ(config.window, days(39));
}

TEST(Scenarios, SignatureRunsAtFullRate) {
  const ScenarioConfig config = ScenarioConfig::signature();
  EXPECT_DOUBLE_EQ(config.population.rate_scale, 1.0);
  // Head-count is reduced to keep the run laptop-sized.
  EXPECT_LT(config.population.portal_owners,
            ScenarioConfig::pb10().population.portal_owners);
  EXPECT_LT(config.window, ScenarioConfig::pb10().window);
}

TEST(Scenarios, QuickIsSmall) {
  const ScenarioConfig config = ScenarioConfig::quick();
  EXPECT_LE(config.population.regular_publishers, 1000u);
  EXPECT_LE(config.window, days(7));
}

// The demand model's parameters are the same for every preset
// (swarm/generator.hpp); their range checks hold at compile time.
static_assert(kDecayTau > 0 && kFakeDecayTau > 0);
static_assert(kDownloaderNatFraction >= 0.0 && kDownloaderNatFraction <= 1.0);
static_assert(kAbortProbability >= 0.0 && kAbortProbability <= 1.0);

TEST(Scenarios, AllPresetsHaveSaneModelParameters) {
  for (const ScenarioConfig& config :
       {ScenarioConfig::pb10(), ScenarioConfig::pb09(), ScenarioConfig::mn08(),
        ScenarioConfig::signature(), ScenarioConfig::quick()}) {
    EXPECT_GT(config.window, 0) << config.name;
    EXPECT_GT(config.population.fake_farms, 0u) << config.name;
    EXPECT_GT(config.tracker.max_numwant, 0u) << config.name;
    EXPECT_GT(config.crawler.empty_replies_to_stop, 0u) << config.name;
  }
}

TEST(Scenarios, SeedFlowsThroughPresets) {
  EXPECT_EQ(ScenarioConfig::pb10(123).seed, 123u);
  EXPECT_EQ(ScenarioConfig::signature(9).seed, 9u);
  EXPECT_EQ(ScenarioConfig::quick(77).seed, 77u);
}

TEST(Scenarios, ByNameFindsEveryPresetAndRejectsOthers) {
  for (const char* name : {"pb10", "pb09", "mn08", "signature", "quick", "spoofed"}) {
    const ScenarioConfig config = ScenarioConfig::by_name(name, 5);
    EXPECT_EQ(config.name, name);
    EXPECT_EQ(config.seed, 5u);
    // Both vantages record the preset's torrents in one style.
    EXPECT_EQ(config.dht_crawler.style, config.crawler.style) << name;
  }
  EXPECT_THROW(ScenarioConfig::by_name("pb11"), std::invalid_argument);
  EXPECT_THROW(ScenarioConfig::by_name(""), std::invalid_argument);
  EXPECT_THROW(ScenarioConfig::by_name("Quick"), std::invalid_argument);
}

}  // namespace
}  // namespace btpub
