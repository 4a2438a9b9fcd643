// profile.hpp — publisher behavioural classes and their parameter tables.
//
// The paper's §3–§5 classification becomes a *generative* model here: the
// ecosystem instantiates publishers from these profiles, and the analysis
// pipeline must then re-discover the classes from crawled observations
// alone. Numbers are calibrated so the scaled-down ecosystem reproduces the
// paper's aggregate shapes (content/download shares, popularity ratios,
// seeding signatures).
#pragma once

#include <array>
#include <cstdint>

#include "portal/category.hpp"
#include "util/rng.hpp"
#include "util/time.hpp"

namespace btpub {

/// Ground-truth behavioural class of a publisher.
enum class PublisherClass : std::uint8_t {
  Regular,         // average user: publishes little, also consumes
  TopAltruistic,   // heavy publisher without a promoting business
  TopPortalOwner,  // promotes an own (often private-tracker) BT portal
  TopOtherWeb,     // promotes image-hosting / forum / other sites
  FakeAntipiracy,  // agency machine poisoning the index with decoys
  FakeMalware,     // malware spreader using catchy fake titles
};

constexpr bool is_fake(PublisherClass c) {
  return c == PublisherClass::FakeAntipiracy || c == PublisherClass::FakeMalware;
}
constexpr bool is_top(PublisherClass c) {
  return c == PublisherClass::TopAltruistic || c == PublisherClass::TopPortalOwner ||
         c == PublisherClass::TopOtherWeb;
}
constexpr bool is_profit_driven(PublisherClass c) {
  return c == PublisherClass::TopPortalOwner || c == PublisherClass::TopOtherWeb;
}

/// How a publisher maps to IP addresses over time (§3.3's four patterns).
enum class IpStrategy : std::uint8_t {
  SingleIp,           // one stable address (25% of top usernames)
  HostingMulti,       // ~5.7 rented servers at hosting providers (34%)
  DynamicCommercial,  // one eyeball ISP, periodically re-assigned IP (24%)
  MultiIsp,           // home + work across different ISPs (16%)
  FakeFarm,           // a fake machine: 1-3 servers, many usernames
};

/// Where a promoting URL is embedded (§5's three channels). Bitmask.
enum class PromoChannel : std::uint8_t {
  None = 0,
  Textbox = 1,          // description box on the content page (most common)
  FilenameSuffix = 2,   // "Some.Movie-divxatope.com.avi"
  PayloadTextFile = 4,  // "Visit-www-example-com.txt" inside the payload
};

constexpr PromoChannel operator|(PromoChannel a, PromoChannel b) {
  return static_cast<PromoChannel>(static_cast<std::uint8_t>(a) |
                                   static_cast<std::uint8_t>(b));
}
constexpr bool has_channel(PromoChannel set, PromoChannel flag) {
  return (static_cast<std::uint8_t>(set) & static_cast<std::uint8_t>(flag)) != 0;
}

/// Seeding behaviour knobs (drives the paper's Figure 4 signatures).
struct SeedingPolicy {
  /// Leave once this many *other* seeders exist (0 = ignore others).
  std::uint32_t leave_after_other_seeders = 3;
  /// Never seed less / more than this per torrent.
  SimDuration min_seed_time = hours(1);
  SimDuration max_seed_time = hours(36);
  /// Mean of the extra time seeded beyond the leave condition.
  SimDuration mean_extra_seed = hours(1);
  /// Hours per day the publisher's machine is online (24 = always-on box).
  double daily_online_hours = 24.0;
  /// Some publish runs upload the .torrent first and bring the seed box
  /// online later (the paper's footnote: swarms whose tracker reported no
  /// seeder for a while), which defeats initial-seeder identification.
  double delayed_start_prob = 0.25;
  SimDuration mean_start_delay = hours(1.5);
  /// Fake publishers: seed continuously until the portal removes the
  /// listing (plus a linger), ignoring other conditions.
  bool seed_until_removed = false;
  SimDuration mean_post_removal_linger = hours(6);
};

/// Per-class generative parameters.
struct ClassProfile {
  PublisherClass cls = PublisherClass::Regular;
  /// Publishing rate (content/day) log-normal over publishers: median and
  /// sigma, at paper (full) scale; the scenario applies its rate scale.
  double rate_median = 0.05;
  double rate_sigma = 0.8;
  /// Per-torrent expected downloads: log-normal median and sigma.
  double popularity_median = 12.0;
  double popularity_sigma = 1.6;
  /// Probability the publisher sits behind NAT when at home (hosted
  /// publishers are never NATed).
  double nat_probability = 0.55;
  /// Probability a torrent was cross-posted earlier on another portal
  /// (defeats initial-seeder identification: swarm is already populated).
  double cross_post_probability = 0.2;
  /// Category mix, indexed by ContentCategory order.
  std::array<double, 9> category_weights{};
  SeedingPolicy seeding;
};

/// The calibrated profile table for a class.
const ClassProfile& class_profile(PublisherClass c);

/// Draws a content category from a profile's mix.
ContentCategory draw_category(const ClassProfile& profile, Rng& rng);

}  // namespace btpub
