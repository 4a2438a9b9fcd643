#include "analysis/streaming/sketch.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <stdexcept>

namespace btpub {
namespace {

double hll_alpha(std::size_t m) noexcept {
  // Flajolet et al.'s bias-correction constants.
  switch (m) {
    case 16:
      return 0.673;
    case 32:
      return 0.697;
    case 64:
      return 0.709;
    default:
      return 0.7213 / (1.0 + 1.079 / static_cast<double>(m));
  }
}

// 2^-r for every register value r (at most 64 - 4 + 1); halving is exact
// down to 2^-64, so each entry equals std::ldexp(1.0, -r).
constexpr std::array<double, 65> kInversePowers = [] {
  std::array<double, 65> table{};
  double value = 1.0;
  for (double& entry : table) {
    entry = value;
    value /= 2.0;
  }
  return table;
}();

}  // namespace

HyperLogLog::HyperLogLog(int precision, std::uint64_t salt)
    : precision_(std::clamp(precision, 4, 18)),
      salt_(salt),
      registers_(std::size_t{1} << std::clamp(precision, 4, 18), 0) {}

void HyperLogLog::add(std::uint64_t key) noexcept {
  const std::uint64_t h = mix64(key ^ salt_);
  const std::size_t index = static_cast<std::size_t>(h >> (64 - precision_));
  // Rank of the first set bit in the remaining 64-p bits, 1-based; an
  // all-zero remainder ranks 64-p+1.
  const std::uint64_t rest = h << precision_;
  const int rank = rest == 0 ? (64 - precision_ + 1) : std::countl_zero(rest) + 1;
  registers_[index] =
      std::max(registers_[index], static_cast<std::uint8_t>(rank));
}

double HyperLogLog::estimate() const noexcept {
  const double m = static_cast<double>(registers_.size());
  double inverse_sum = 0.0;
  std::size_t zeros = 0;
  for (const std::uint8_t reg : registers_) {
    inverse_sum += kInversePowers[reg];
    if (reg == 0) ++zeros;
  }
  const double raw = hll_alpha(registers_.size()) * m * m / inverse_sum;
  if (raw <= 2.5 * m && zeros > 0) {
    // Small-range correction: linear counting on empty registers.
    return m * std::log(m / static_cast<double>(zeros));
  }
  return raw;
}

void HyperLogLog::merge(const HyperLogLog& other) {
  if (other.precision_ != precision_ || other.salt_ != salt_) {
    throw std::invalid_argument("HyperLogLog::merge: mismatched sketches");
  }
  for (std::size_t i = 0; i < registers_.size(); ++i) {
    registers_[i] = std::max(registers_[i], other.registers_[i]);
  }
}

double HyperLogLog::relative_error() const noexcept {
  return 1.04 / std::sqrt(static_cast<double>(registers_.size()));
}

bool HyperLogLog::empty() const noexcept {
  return std::all_of(registers_.begin(), registers_.end(),
                     [](std::uint8_t r) { return r == 0; });
}

CountMinSketch::CountMinSketch(std::size_t width, std::size_t depth,
                               std::uint64_t salt)
    : width_(std::max<std::size_t>(width, 1)),
      depth_(std::max<std::size_t>(depth, 1)),
      column_mask_(std::has_single_bit(width_) ? width_ - 1 : 0),
      salt_(salt),
      cells_(width_ * depth_, 0) {}

void CountMinSketch::add(std::uint64_t key, std::uint64_t amount) noexcept {
  auto [h, step] = hashes(key);
  for (std::size_t row = 0; row < depth_; ++row, h += step) {
    cells_[row * width_ + column(h)] += amount;
  }
}

std::uint64_t CountMinSketch::count(std::uint64_t key) const noexcept {
  std::uint64_t best = ~std::uint64_t{0};
  auto [h, step] = hashes(key);
  for (std::size_t row = 0; row < depth_; ++row, h += step) {
    best = std::min(best, cells_[row * width_ + column(h)]);
  }
  return best;
}

std::uint64_t CountMinSketch::total() const noexcept {
  // Every add lands in exactly one row-0 cell, so row 0 sums to the mass.
  std::uint64_t sum = 0;
  for (std::size_t col = 0; col < width_; ++col) {
    sum += cells_[col];
  }
  return sum;
}

double CountMinSketch::epsilon() const noexcept {
  return std::exp(1.0) / static_cast<double>(width_);
}

}  // namespace btpub
