// rng.hpp — deterministic pseudo-random number generation for the simulator.
//
// Everything in btpub that needs randomness draws from an explicitly-passed
// Rng so that a single seed reproduces an entire ecosystem, crawl and
// analysis run bit-for-bit. The generator is xoshiro256** (Blackman/Vigna),
// which is fast, has a 2^256-1 period and passes BigCrush.
#pragma once

#include <array>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

namespace btpub {

/// SplitMix64's increment: the golden ratio in 64 bits.
inline constexpr std::uint64_t kSplitMix64Gamma = 0x9E3779B97F4A7C15ULL;

/// The SplitMix64 output for state `x`: one increment, then the
/// full-avalanche finalizer. Also the 64-bit hash of the sketches' bucketing.
/// The k-th output (k = 0, 1, ...) of a stream at `state` is
/// mix64(state + k * kSplitMix64Gamma), so a stream can be written from a
/// counter with no carried dependency.
constexpr std::uint64_t mix64(std::uint64_t x) noexcept {
  x += kSplitMix64Gamma;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

/// One SplitMix64 step: advances `state` and returns the next output. The
/// cheap PRF behind derive_seed, Rng seeding and synthetic piece hashes.
std::uint64_t splitmix64(std::uint64_t& state) noexcept;

/// Stateless substream derivation: maps a (seed, key) pair onto a child
/// seed through SplitMix64 finalisation. Two different keys give unrelated
/// streams; the same pair always gives the same stream, independent of any
/// generator state. This is what makes the parallel build deterministic
/// and a crawl independent of the order it visits torrents in — every
/// per-publication, per-torrent and per-announce generator is keyed by
/// identity (event index, portal id, infohash, query time...) rather than
/// drawn from a shared sequential stream whose output would depend on
/// scheduling order.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t key) noexcept;

/// Variadic form: folds every key into the seed left to right.
template <typename... Keys>
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t key,
                          Keys... rest) noexcept {
  return derive_seed(derive_seed(seed, key), static_cast<std::uint64_t>(rest)...);
}

/// Deterministic random number generator plus the distributions the
/// ecosystem model needs (uniform, normal, lognormal, exponential). Satisfies UniformRandomBitGenerator so it can also be
/// used with <random> adaptors if ever required.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds the state via SplitMix64 so that nearby seeds give unrelated
  /// streams.
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) noexcept;

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept {
    return std::numeric_limits<result_type>::max();
  }

  /// Next raw 64-bit output.
  result_type operator()() noexcept { return next(); }
  result_type next() noexcept;

  /// Forks an independent child stream; used to give each subsystem its
  /// own generator so adding draws in one module does not perturb others.
  Rng fork() noexcept;

  /// Uniform double in [0, 1).
  double uniform() noexcept;
  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) noexcept;
  /// Uniform integer in [lo, hi] (inclusive). Requires lo <= hi.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) noexcept;
  /// Bernoulli trial.
  bool chance(double p) noexcept;

  /// Standard normal via Marsaglia polar method.
  double normal() noexcept;
  double normal(double mean, double stddev) noexcept;
  /// Lognormal parameterised by the *median* and sigma of log-space:
  /// exp(log(median) + sigma * N(0,1)). Heavy-tail workhorse for website
  /// value / income / visits (Table 5) and content popularity.
  double lognormal_median(double median, double sigma) noexcept;
  /// Exponential with the given mean (mean = 1/lambda).
  double exponential(double mean) noexcept;

  /// Picks a uniformly random element index of a non-empty span.
  std::size_t index(std::size_t size) noexcept;

  /// Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) noexcept {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::size_t j = index(i);
      using std::swap;
      swap(v[i - 1], v[j]);
    }
  }

  /// Reservoir-samples k distinct indices out of [0, n). Order is random.
  std::vector<std::size_t> sample_indices(std::size_t n, std::size_t k) noexcept;

  /// Picks an index with probability proportional to weights[i].
  /// Requires at least one strictly positive weight.
  std::size_t weighted_index(std::span<const double> weights) noexcept;

 private:
  std::array<std::uint64_t, 4> state_{};
  double spare_normal_ = 0.0;
  bool has_spare_normal_ = false;
};

}  // namespace btpub
