#include "util/rng.hpp"

#include <cassert>
#include <cmath>

namespace btpub {

std::uint64_t splitmix64(std::uint64_t& x) noexcept {
  const std::uint64_t state = x;
  x += kSplitMix64Gamma;
  return mix64(state);
}

namespace {

std::uint64_t rotl(std::uint64_t x, int k) noexcept {
  return (x << k) | (x >> (64 - k));
}

}  // namespace

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t key) noexcept {
  // Feed the pair through one SplitMix64 step each so that both arguments
  // diffuse into the result; xor alone would make (a, b) and (b, a) collide.
  std::uint64_t x = seed + 0x9e3779b97f4a7c15ULL;
  std::uint64_t mixed = splitmix64(x);
  x = mixed ^ key;
  return splitmix64(x);
}

Rng::Rng(std::uint64_t seed) noexcept {
  std::uint64_t s = seed;
  for (auto& word : state_) word = splitmix64(s);
}

std::uint64_t Rng::next() noexcept {
  const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
  const std::uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = rotl(state_[3], 45);
  return result;
}

Rng Rng::fork() noexcept { return Rng{next()}; }

double Rng::uniform() noexcept {
  // 53 random mantissa bits -> [0, 1).
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) noexcept {
  return lo + (hi - lo) * uniform();
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) noexcept {
  assert(lo <= hi);
  const std::uint64_t span = static_cast<std::uint64_t>(hi - lo) + 1;
  if (span == 0) return static_cast<std::int64_t>(next());  // full 64-bit range
  // Rejection sampling to kill modulo bias.
  const std::uint64_t limit = max() - max() % span;
  std::uint64_t draw = next();
  while (draw >= limit) draw = next();
  return lo + static_cast<std::int64_t>(draw % span);
}

bool Rng::chance(double p) noexcept {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return uniform() < p;
}

double Rng::normal() noexcept {
  if (has_spare_normal_) {
    has_spare_normal_ = false;
    return spare_normal_;
  }
  double u, v, s;
  do {
    u = uniform(-1.0, 1.0);
    v = uniform(-1.0, 1.0);
    s = u * u + v * v;
  } while (s >= 1.0 || s == 0.0);
  const double factor = std::sqrt(-2.0 * std::log(s) / s);
  spare_normal_ = v * factor;
  has_spare_normal_ = true;
  return u * factor;
}

double Rng::normal(double mean, double stddev) noexcept {
  return mean + stddev * normal();
}

double Rng::lognormal_median(double median, double sigma) noexcept {
  assert(median > 0.0);
  return std::exp(std::log(median) + sigma * normal());
}

double Rng::exponential(double mean) noexcept {
  assert(mean > 0.0);
  double u = uniform();
  while (u <= 0.0) u = uniform();
  return -mean * std::log(u);
}

std::size_t Rng::index(std::size_t size) noexcept {
  assert(size > 0);
  return static_cast<std::size_t>(uniform_int(0, static_cast<std::int64_t>(size) - 1));
}

std::vector<std::size_t> Rng::sample_indices(std::size_t n, std::size_t k) noexcept {
  if (k >= n) {
    std::vector<std::size_t> all(n);
    for (std::size_t i = 0; i < n; ++i) all[i] = i;
    shuffle(all);
    return all;
  }
  // Reservoir sampling (Algorithm R) followed by a shuffle of the reservoir.
  std::vector<std::size_t> reservoir(k);
  for (std::size_t i = 0; i < k; ++i) reservoir[i] = i;
  for (std::size_t i = k; i < n; ++i) {
    const std::size_t j = static_cast<std::size_t>(
        uniform_int(0, static_cast<std::int64_t>(i)));
    if (j < k) reservoir[j] = i;
  }
  shuffle(reservoir);
  return reservoir;
}

std::size_t Rng::weighted_index(std::span<const double> weights) noexcept {
  double total = 0.0;
  for (double w : weights) total += (w > 0.0 ? w : 0.0);
  assert(total > 0.0);
  double target = uniform() * total;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    const double w = weights[i] > 0.0 ? weights[i] : 0.0;
    if (target < w) return i;
    target -= w;
  }
  return weights.size() - 1;
}

}  // namespace btpub
