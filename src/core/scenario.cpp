#include "core/scenario.hpp"

#include <stdexcept>

namespace btpub {

/// The one place a preset writes its dataset style, for both vantages.
static void set_style(ScenarioConfig& config, DatasetStyle style) {
  config.crawler.style = style;
  config.dht_crawler.style = style;
}

ScenarioConfig ScenarioConfig::pb10(std::uint64_t seed) {
  ScenarioConfig config;
  config.seed = seed;
  config.name = "pb10";
  config.window = days(30);
  set_style(config, DatasetStyle::Pb10);
  return config;
}

ScenarioConfig ScenarioConfig::pb09(std::uint64_t seed) {
  ScenarioConfig config = pb10(seed);
  config.name = "pb09";
  config.window = days(21);
  set_style(config, DatasetStyle::Pb09);
  return config;
}

ScenarioConfig ScenarioConfig::mn08(std::uint64_t seed) {
  ScenarioConfig config = pb10(seed);
  config.name = "mn08";
  config.window = days(39);
  set_style(config, DatasetStyle::Mn08);
  return config;
}

ScenarioConfig ScenarioConfig::signature(std::uint64_t seed) {
  ScenarioConfig config;
  config.seed = seed;
  config.name = "signature";
  // Full-scale publishing rates, reduced head-count, shorter window: the
  // per-publisher temporal density (Figure 4) matches the paper while the
  // run stays laptop-sized.
  config.window = days(8);
  config.population.rate_scale = 1.0;
  // Regular users must dominate the username population so the "All"
  // sample behaves like the paper's (mostly ordinary publishers).
  config.population.regular_publishers = 2200;
  config.population.portal_owners = 14;
  config.population.other_web = 12;
  config.population.top_altruistic = 22;
  config.population.fake_farms = 8;
  config.population.fake_usernames = 40;
  config.population.compromised_usernames = 4;
  config.population.popularity_scale = 0.6;
  set_style(config, DatasetStyle::Pb10);
  return config;
}

ScenarioConfig ScenarioConfig::quick(std::uint64_t seed) {
  ScenarioConfig config;
  config.seed = seed;
  config.name = "quick";
  config.window = days(7);
  config.population.regular_publishers = 700;
  config.population.portal_owners = 6;
  config.population.other_web = 5;
  config.population.top_altruistic = 8;
  config.population.fake_farms = 6;
  config.population.fake_usernames = 50;
  config.population.compromised_usernames = 3;
  config.population.rate_scale = 0.6;
  config.population.popularity_scale = 0.5;
  set_style(config, DatasetStyle::Pb10);
  return config;
}

ScenarioConfig ScenarioConfig::spoofed(std::uint64_t seed) {
  ScenarioConfig config = quick(seed);
  config.name = "spoofed";
  config.fake_spoofed_peers = 25;
  return config;
}

ScenarioConfig ScenarioConfig::by_name(std::string_view name,
                                       std::uint64_t seed) {
  if (name == "pb10") return pb10(seed);
  if (name == "pb09") return pb09(seed);
  if (name == "mn08") return mn08(seed);
  if (name == "signature") return signature(seed);
  if (name == "quick") return quick(seed);
  if (name == "spoofed") return spoofed(seed);
  throw std::invalid_argument("unknown scenario '" + std::string(name) + "'");
}

}  // namespace btpub
