#include "util/stats.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <numeric>

#include "util/rng.hpp"

namespace btpub {
namespace {

std::vector<double> sorted_copy(std::span<const double> values) {
  std::vector<double> v(values.begin(), values.end());
  std::sort(v.begin(), v.end());
  return v;
}

// The q-th percentile (0 <= q <= 100) of non-empty ascending `sorted`,
// linearly interpolated between the two nearest ranks.
double percentile_sorted(std::span<const double> sorted, double q) {
  const double pos = q / 100.0 * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const auto hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

}  // namespace

double mean(std::span<const double> values) {
  if (values.empty()) return 0.0;
  const double sum = std::accumulate(values.begin(), values.end(), 0.0);
  return sum / static_cast<double>(values.size());
}

BoxStats box_stats(std::span<const double> values) {
  BoxStats b;
  if (values.empty()) return b;
  const auto sorted = sorted_copy(values);
  b.min = sorted.front();
  b.p25 = percentile_sorted(sorted, 25.0);
  b.median = percentile_sorted(sorted, 50.0);
  b.p75 = percentile_sorted(sorted, 75.0);
  b.max = sorted.back();
  b.count = sorted.size();
  return b;
}

SummaryRow summary_row(std::span<const double> values) {
  SummaryRow s;
  if (values.empty()) return s;
  const auto sorted = sorted_copy(values);
  s.min = sorted.front();
  s.median = percentile_sorted(sorted, 50.0);
  s.avg = mean(values);
  s.max = sorted.back();
  s.count = sorted.size();
  return s;
}

double gini(std::span<const double> values) {
  if (values.size() < 2) return 0.0;
  const auto sorted = sorted_copy(values);
  const double total = std::accumulate(sorted.begin(), sorted.end(), 0.0);
  if (total <= 0.0) return 0.0;
  // G = (2 * sum(i * x_i) / (n * sum(x)) ) - (n + 1) / n, x ascending, i from 1.
  double weighted = 0.0;
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    weighted += static_cast<double>(i + 1) * sorted[i];
  }
  const double n = static_cast<double>(sorted.size());
  return 2.0 * weighted / (n * total) - (n + 1.0) / n;
}

std::vector<LorenzPoint> top_share_curve(std::span<const double> contributions,
                                         std::span<const double> top_percents) {
  std::vector<LorenzPoint> curve;
  curve.reserve(top_percents.size());
  std::vector<double> desc(contributions.begin(), contributions.end());
  std::sort(desc.begin(), desc.end(), std::greater<>());
  const double total = std::accumulate(desc.begin(), desc.end(), 0.0);
  std::vector<double> cum(desc.size());
  std::partial_sum(desc.begin(), desc.end(), cum.begin());
  for (double x : top_percents) {
    LorenzPoint p;
    p.top_percent = x;
    if (total > 0.0 && !desc.empty()) {
      auto k = static_cast<std::size_t>(
          std::ceil(x / 100.0 * static_cast<double>(desc.size())));
      k = std::clamp<std::size_t>(k, 0, desc.size());
      p.content_percent = k == 0 ? 0.0 : cum[k - 1] / total * 100.0;
    }
    curve.push_back(p);
  }
  return curve;
}

Histogram::Histogram(double lo_, double hi_, std::size_t bins) : lo(lo_), hi(hi_) {
  assert(hi_ > lo_ && bins > 0);
  counts.assign(bins, 0);
}

void Histogram::add(double v) {
  if (std::isnan(v)) {
    ++nan_count;
    return;
  }
  if (v < lo) {
    ++underflow;
    return;
  }
  if (v >= hi) {
    ++overflow;
    return;
  }
  const double span = hi - lo;
  auto idx = static_cast<std::size_t>((v - lo) / span *
                                      static_cast<double>(counts.size()));
  // v just below hi can still round up to bins due to floating point.
  if (idx >= counts.size()) idx = counts.size() - 1;
  ++counts[idx];
}

std::size_t Histogram::total() const {
  return std::accumulate(counts.begin(), counts.end(), std::size_t{0});
}

std::size_t Histogram::observed() const {
  return total() + underflow + overflow + nan_count;
}

double Histogram::fraction(std::size_t i) const {
  const std::size_t t = observed();
  if (t == 0 || i >= counts.size()) return 0.0;
  return static_cast<double>(counts[i]) / static_cast<double>(t);
}

std::size_t sample_poisson(double mean, Rng& rng) noexcept {
  if (mean <= 0.0) return 0;
  if (mean < kPoissonNormalCutoff) {
    const double limit = std::exp(-mean);
    std::size_t k = 0;
    double product = rng.uniform();
    while (product > limit) {
      ++k;
      product *= rng.uniform();
    }
    return k;
  }
  const double draw = rng.normal(mean, std::sqrt(mean));
  return draw <= 0.0 ? 0 : static_cast<std::size_t>(std::llround(draw));
}

}  // namespace btpub
