#include "swarm/generator.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "util/stats.hpp"

namespace btpub {

ConsumerPool::ConsumerPool(const IspCatalog& catalog) : catalog_(&catalog) {}

void ConsumerPool::add_sticky(Endpoint endpoint, double weight) {
  sticky_.push_back(endpoint);
  weights_.push_back(weight);
}

Endpoint ConsumerPool::draw(Rng& rng) const {
  if (!sticky_.empty() && rng.chance(kStickyConsumerBias)) {
    const std::size_t i = rng.weighted_index(weights_);
    return sticky_[i];
  }
  const auto& names = catalog_->eyeball_names();
  assert(!names.empty());
  const auto& pool = catalog_->pool(names[rng.index(names.size())]);
  Endpoint e;
  e.ip = pool.random_residential(rng);
  e.port = static_cast<std::uint16_t>(rng.uniform_int(1025, 65535));
  return e;
}

double SwarmGenerator::truncated_mean(const SwarmSpec& spec) {
  const SimDuration horizon = spec.arrivals_end - spec.birth;
  if (horizon <= 0) return 0.0;
  const double T = static_cast<double>(horizon);
  const double tau = static_cast<double>(std::max<SimDuration>(spec.decay_tau(), 1));
  return spec.expected_downloads * (1.0 - std::exp(-T / tau));
}

std::size_t SwarmGenerator::generate(Swarm& swarm, const SwarmSpec& spec,
                                     Rng& rng) const {
  const double mean_arrivals = truncated_mean(spec);
  const std::size_t n = sample_poisson(mean_arrivals, rng);
  if (n == 0) return 0;
  // One staging allocation for the whole swarm (+ a little headroom for the
  // publisher's seed sessions and any decoys added after us).
  swarm.reserve_sessions(swarm.sessions().size() + n + 8);

  const double T = static_cast<double>(spec.arrivals_end - spec.birth);
  const double tau = static_cast<double>(std::max<SimDuration>(spec.decay_tau(), 1));
  const double mass = 1.0 - std::exp(-T / tau);

  for (std::size_t i = 0; i < n; ++i) {
    // Inverse CDF of the truncated exponential arrival-time density.
    const double u = rng.uniform();
    const double offset = -tau * std::log(1.0 - u * mass);
    const SimTime arrive = spec.birth + static_cast<SimTime>(offset);

    PeerSession s;
    s.endpoint = consumers_->draw(rng);
    s.arrive = arrive;
    s.nat = rng.chance(kDownloaderNatFraction);

    if (spec.fake) {
      // Fake payload: the user joins, realises the content is bogus (or
      // the download stalls behind a single decoy seed) and bails.
      const SimDuration stay = minutes(rng.uniform(10.0, 40.0));
      s.depart = arrive + stay;
      // complete_at stays at "never".
    } else if (rng.chance(kAbortProbability)) {
      const double dl =
          rng.lognormal_median(static_cast<double>(kMedianDownloadTime), 0.8);
      const SimDuration stay =
          std::max<SimDuration>(minutes(5), static_cast<SimDuration>(dl * rng.uniform(0.1, 0.7)));
      s.depart = arrive + stay;
    } else {
      const double dl =
          rng.lognormal_median(static_cast<double>(kMedianDownloadTime), 0.8);
      const auto duration = std::max<SimDuration>(minutes(10), static_cast<SimDuration>(dl));
      s.complete_at = arrive + duration;
      SimDuration seed_tail = minutes(rng.uniform(1.0, 5.0));  // brief linger
      if (rng.chance(kSeedProbability)) {
        seed_tail = static_cast<SimDuration>(
            rng.exponential(static_cast<double>(kMeanSeedTime)));
        seed_tail = std::max<SimDuration>(seed_tail, minutes(5));
      }
      s.depart = s.complete_at + seed_tail;
    }
    swarm.add_session(s);
  }
  return n;
}

}  // namespace btpub
