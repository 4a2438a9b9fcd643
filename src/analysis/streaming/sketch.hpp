// sketch.hpp — bounded-memory probabilistic sketches for the streaming
// analysis layer (§4.5): a HyperLogLog for distinct downloader IPs and a
// count-min sketch for per-IP announce rates.
//
// Both sketches are *commutative*: their final state depends only on the
// multiset of updates, never on update order. That property is what lets
// one classifier take observations from both vantages, interleaved (as
// live_monitor feeds it), and still produce the same end-of-crawl snapshot
// as any other order of the same observations.
//
//   * HyperLogLog registers only ever move up (max of two states), so
//     per-torrent instances merge register-wise at snapshot time.
//   * CountMinSketch cells are plain sums; addition is commutative, so
//     final counts are exact functions of the observation multiset.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

namespace btpub {

/// SplitMix64 finalizer — the same mixer the RNG substream derivation uses.
/// Full-avalanche 64-bit hash for sketch bucketing.
constexpr std::uint64_t mix64(std::uint64_t x) noexcept {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

/// HyperLogLog distinct counter (Flajolet et al. 2007) with the standard
/// small-range linear-counting correction. With 2^precision registers the
/// standard error is 1.04 / sqrt(2^precision) — precision 12 (4 KiB) gives
/// ~1.6%, precision 14 (16 KiB) ~0.41%. A 64-bit hash removes the need for
/// the 32-bit large-range correction: collisions are negligible below 2^57.
class HyperLogLog {
 public:
  /// precision in [4, 18]; out-of-range values are clamped.
  explicit HyperLogLog(int precision = 12, std::uint64_t salt = 0);

  void add(std::uint64_t key) noexcept;
  /// Estimated number of distinct keys added.
  double estimate() const noexcept;
  /// Merges another sketch (register-wise max). Both must share precision
  /// and salt; mismatches throw std::invalid_argument.
  void merge(const HyperLogLog& other);

  int precision() const noexcept { return precision_; }
  std::size_t register_count() const noexcept { return registers_.size(); }
  /// One standard error of the estimator, as a fraction of the true count.
  double relative_error() const noexcept;
  /// True when no key was ever added.
  bool empty() const noexcept;

 private:
  int precision_;
  std::uint64_t salt_;
  std::vector<std::uint8_t> registers_;
};

/// Count-min sketch (Cormode & Muthukrishnan 2005) over 64-bit keys.
/// count() never
/// under-estimates; with width w it over-estimates by at most e/w of the
/// total mass with probability 1 - e^-depth.
class CountMinSketch {
 public:
  CountMinSketch(std::size_t width, std::size_t depth, std::uint64_t salt = 0);

  void add(std::uint64_t key, std::uint64_t amount = 1) noexcept;
  /// Point estimate: min over rows. An over-estimate, never an under-.
  std::uint64_t count(std::uint64_t key) const noexcept;
  /// Total mass added across all keys: the sum of row 0, O(width).
  std::uint64_t total() const noexcept;

  std::size_t width() const noexcept { return width_; }
  std::size_t depth() const noexcept { return depth_; }
  /// Over-estimation bound as a fraction of total(): err <= epsilon * total
  /// with probability 1 - e^-depth.
  double epsilon() const noexcept;

 private:
  /// Kirsch–Mitzenmacher double hashing: one mix of the salted key yields
  /// (h1, h2), and row r probes column (h1 + r*h2) % width — one hash per
  /// update instead of one per row, preserving the pairwise-independence
  /// the CMS error bound needs. h2 is forced odd so consecutive rows never
  /// collapse onto one column stride.
  std::pair<std::uint64_t, std::uint64_t> hashes(std::uint64_t key) const noexcept {
    const std::uint64_t h1 = mix64(key ^ salt_);
    return {h1, mix64(h1) | 1};
  }
  /// h % width, as a mask when width is a power of two (the same column
  /// without a 64-bit divide).
  std::size_t column(std::uint64_t h) const noexcept {
    return static_cast<std::size_t>(column_mask_ != 0 ? h & column_mask_
                                                      : h % width_);
  }

  std::size_t width_;
  std::size_t depth_;
  std::uint64_t column_mask_;  // width - 1 for a power-of-two width, else 0
  std::uint64_t salt_;
  std::vector<std::uint64_t> cells_;
};

}  // namespace btpub
