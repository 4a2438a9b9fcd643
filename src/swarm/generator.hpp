// generator.hpp — demand model: who downloads a published content, when,
// and for how long.
//
// Arrivals follow a non-homogeneous Poisson process whose rate decays
// exponentially from the torrent's birth (the classic flash-crowd-then-
// -decay shape measured by Izal et al. and Guo et al.), truncated when the
// portal removes the listing. Downloaders of genuine content may convert to
// seeders for a while; downloaders of fake content abandon within minutes
// and never seed — which is what forces fake publishers into long seeding
// sessions (paper §4.3).
#pragma once

#include <cstdint>
#include <vector>

#include "geo/isp_catalog.hpp"
#include "swarm/swarm.hpp"
#include "util/rng.hpp"
#include "util/time.hpp"

namespace btpub {

/// Fraction of downloaders behind NAT (unreachable for probes).
inline constexpr double kDownloaderNatFraction = 0.35;
/// Arrival-rate decay constant of a genuine swarm: rate ~ exp(-(t-birth)/tau).
inline constexpr SimDuration kDecayTau = days(1.5);
/// Fake swarms decay faster: catchy titles attract their victims at once, and
/// the portal removes the listing within a day or two.
inline constexpr SimDuration kFakeDecayTau = hours(14);
/// Median time a genuine downloader needs to complete.
inline constexpr SimDuration kMedianDownloadTime = hours(2.5);
/// Probability a genuine downloader aborts before completing.
inline constexpr double kAbortProbability = 0.15;
/// Probability a completed downloader stays to seed, and for how long.
inline constexpr double kSeedProbability = 0.45;
inline constexpr SimDuration kMeanSeedTime = hours(3);
/// Fraction of downloader draws taken from the sticky consumer pool.
inline constexpr double kStickyConsumerBias = 0.02;

/// The population that downloads content: fresh eyeball-ISP users plus a
/// sticky pool of known consumers (regular publishers also consume; top
/// publishers mostly do not — §3.1's "40% of the top-100 download nothing").
class ConsumerPool {
 public:
  explicit ConsumerPool(const IspCatalog& catalog);

  /// Adds a sticky consumer (e.g. a regular publisher's home IP) with the
  /// given relative weight of appearing in any one swarm.
  void add_sticky(Endpoint endpoint, double weight = 1.0);

  /// Draws a downloader endpoint: with probability kStickyConsumerBias a
  /// sticky consumer, otherwise a fresh residential address. Pure given
  /// `rng` and touches no pool state, so concurrent draws from distinct
  /// generators (the parallel ecosystem build) are safe.
  Endpoint draw(Rng& rng) const;

 private:
  const IspCatalog* catalog_;
  std::vector<Endpoint> sticky_;
  std::vector<double> weights_;
};

/// Parameters of one torrent's demand.
struct SwarmSpec {
  SimTime birth = 0;
  /// Expected number of downloads over an unbounded horizon.
  double expected_downloads = 50.0;
  /// Hard stop for new arrivals (listing removal or end of simulation).
  SimTime arrivals_end = 0;
  /// Fake content: arrivals decay at kFakeDecayTau instead of kDecayTau,
  /// and downloaders abandon quickly and never seed.
  bool fake = false;
  SimDuration decay_tau() const noexcept { return fake ? kFakeDecayTau : kDecayTau; }
};

/// Generates downloader sessions for one swarm.
class SwarmGenerator {
 public:
  explicit SwarmGenerator(const ConsumerPool& consumers) : consumers_(&consumers) {}

  /// Appends downloader sessions to `swarm` per `spec`; returns how many
  /// arrivals were generated. Does not finalize the swarm.
  std::size_t generate(Swarm& swarm, const SwarmSpec& spec, Rng& rng) const;

  /// The truncated-exponential arrival-count mean used internally; exposed
  /// for tests: E[N] = expected * (1 - exp(-T/tau)), tau = spec.decay_tau().
  static double truncated_mean(const SwarmSpec& spec);

 private:
  const ConsumerPool* consumers_;
};

}  // namespace btpub
