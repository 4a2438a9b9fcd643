// population.hpp — instantiates the full publisher population of a
// scenario: regular users, the three top-publisher classes, and the fake
// farms, together with their websites, IP allocations and username pools.
// Counts and rate scales default to the pb10-like scenario (the paper's
// main dataset) at roughly 1:7 of the real portal's volume.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "geo/isp_catalog.hpp"
#include "publisher/publisher.hpp"
#include "websim/website.hpp"

namespace btpub {

struct PopulationConfig {
  std::size_t regular_publishers = 4600;
  std::size_t portal_owners = 22;
  std::size_t other_web = 20;
  std::size_t top_altruistic = 42;
  std::size_t fake_farms = 40;
  /// Throwaway (hacked / randomly created) accounts shared by the farms.
  std::size_t fake_usernames = 950;
  /// Hijacked formerly-legitimate accounts that end up inside the top-100
  /// usernames (the paper found 16).
  std::size_t compromised_usernames = 16;
  /// Multiplies the full-scale (paper Table 4) publishing rates of top and
  /// fake publishers; regular users are not scaled.
  double rate_scale = 0.22;
  /// Multiplies per-torrent expected downloads.
  double popularity_scale = 1.0;
};

/// The built population plus ground truth the validation benches use.
struct Population {
  std::vector<Publisher> publishers;
  WebsiteDirectory websites;
  /// Ground truth: which publisher entity owns each username.
  std::unordered_map<std::string, PublisherId> owner_of_username;
  /// Sticky consumer endpoints (regular publishers consume; a fraction of
  /// top publishers download a handful of files) with draw weights.
  std::vector<std::pair<Endpoint, double>> sticky_consumers;

  Publisher& by_id(PublisherId id) { return publishers.at(id); }
  const Publisher& by_id(PublisherId id) const { return publishers.at(id); }
};

/// Builds a population. Mutates the catalog (allocates server addresses).
Population build_population(const PopulationConfig& config, IspCatalog& catalog,
                            Rng& rng);

}  // namespace btpub
