// scenario.hpp — everything that configures one simulated ecosystem plus
// the preset scenarios used by the benches.
//
// Presets:
//   * pb10()      — the paper's main dataset: month-long Pirate-Bay-style
//                   crawl with usernames, IPs and periodic monitoring, at
//                   roughly 1:7 of the real portal's publishing volume.
//   * pb09()      — same portal, single tracker query per torrent.
//   * mn08()      — Mininova-style: no usernames, periodic monitoring.
//   * signature() — full-scale publishing *rates* with a reduced publisher
//                   head-count and a shorter window; used for the Figure-4
//                   seeding-signature study, where per-publisher temporal
//                   density (parallel torrents, aggregated sessions) must
//                   match the paper rather than the portal's total volume.
//   * quick()     — small and fast; unit/integration tests and examples.
//   * spoofed()   — quick() plus fake publishers that inject spoofed decoy
//                   addresses into their tracker announces; the DHT
//                   cross-check study's scenario.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "crawler/crawler.hpp"
#include "crawler/dht_crawler.hpp"
#include "publisher/population.hpp"
#include "tracker/tracker.hpp"
#include "util/time.hpp"

namespace btpub {

struct ScenarioConfig {
  std::uint64_t seed = 42;
  std::string name = "pb10";
  SimDuration window = days(30);

  /// Worker threads for the ecosystem build (publication preparation:
  /// metainfo hashing, swarm generation, seed-session planning); 0 =
  /// hardware concurrency. The generated world is byte-identical for every
  /// value — each publication event draws from its own derive_seed
  /// substream and results merge back in event order. The crawl runs on
  /// one thread whatever this says.
  std::size_t threads = 0;

  PopulationConfig population;
  TrackerConfig tracker;
  /// The presets set crawler.style and dht_crawler.style together.
  CrawlerConfig crawler;
  DhtCrawlerConfig dht_crawler;

  /// Fraction of fake listings moderation never catches (the paper notes
  /// the portals' countermeasure "does not seem to be enough effective").
  double moderation_miss_probability = 0.0;

  /// Spoofed decoy addresses a fake-farm publisher injects into the
  /// tracker per torrent (claimed seeders drawn from a hosting-style
  /// block). The addresses are not actually held: unreachable to probes
  /// and absent from the DHT, whose nodes store the announce *source*
  /// address — the disagreement the cross-check report flags. 0 disables
  /// (the default; every preexisting scenario is bit-unchanged).
  std::size_t fake_spoofed_peers = 0;

  static ScenarioConfig pb10(std::uint64_t seed = 42);
  static ScenarioConfig pb09(std::uint64_t seed = 42);
  static ScenarioConfig mn08(std::uint64_t seed = 42);
  static ScenarioConfig signature(std::uint64_t seed = 42);
  static ScenarioConfig quick(std::uint64_t seed = 42);
  static ScenarioConfig spoofed(std::uint64_t seed = 42);

  /// The preset called `name` (pb10, pb09, mn08, signature, quick or
  /// spoofed); throws std::invalid_argument for any other name.
  static ScenarioConfig by_name(std::string_view name, std::uint64_t seed = 42);
};

}  // namespace btpub
