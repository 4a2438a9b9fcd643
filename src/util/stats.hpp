// stats.hpp — descriptive statistics used by the analysis pipeline and the
// bench harnesses: box-plot summaries (Figures 3 and 4),
// min/median/avg/max rows (Tables 4 and 5), Gini coefficient and CDF points
// (Figure 1 skewness), and simple histograms.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace btpub {

/// Five-number summary backing a box plot (the paper's Figures 3 & 4 report
/// 25th/50th/75th percentiles; we also keep the whiskers).
struct BoxStats {
  double min = 0.0;
  double p25 = 0.0;
  double median = 0.0;
  double p75 = 0.0;
  double max = 0.0;
  std::size_t count = 0;
};

/// min/median/avg/max row as printed in the paper's Tables 4 and 5.
struct SummaryRow {
  double min = 0.0;
  double median = 0.0;
  double avg = 0.0;
  double max = 0.0;
  std::size_t count = 0;
};

/// Arithmetic mean; 0 for empty input.
double mean(std::span<const double> values);

/// Quartiles and medians below are linear-interpolated percentiles.
BoxStats box_stats(std::span<const double> values);

SummaryRow summary_row(std::span<const double> values);

/// Gini coefficient of a non-negative distribution (0 = perfectly equal,
/// -> 1 = maximally skewed). Used to quantify Figure 1's contribution skew.
double gini(std::span<const double> values);

/// One point of the "top x% of publishers contribute y% of content" curve.
struct LorenzPoint {
  double top_percent = 0.0;      // x: top share of the population, in percent
  double content_percent = 0.0;  // y: share of total mass they account for
};

/// Computes the Figure-1 curve: sorts contributions descending and reports
/// the cumulative share held by the top x% for each requested x.
std::vector<LorenzPoint> top_share_curve(std::span<const double> contributions,
                                         std::span<const double> top_percents);

/// Fixed-width histogram over [lo, hi) with `bins` buckets. Samples outside
/// the range are NOT clamped into the edge buckets (that silently corrupts
/// the distribution tails) — they are tallied in the explicit `underflow` /
/// `overflow` counters; NaN samples land in `nan_count`.
struct Histogram {
  double lo = 0.0;
  double hi = 1.0;
  std::vector<std::size_t> counts;
  std::size_t underflow = 0;   // samples with v < lo
  std::size_t overflow = 0;    // samples with v >= hi
  std::size_t nan_count = 0;   // NaN samples (neither under nor over)

  Histogram(double lo_, double hi_, std::size_t bins);
  void add(double v);
  /// In-range samples only.
  std::size_t total() const;
  /// Every add() call, including out-of-range and NaN samples.
  std::size_t observed() const;
  /// Fraction of all observed samples in bucket i (out-of-range samples
  /// dilute the in-range mass, as they should).
  double fraction(std::size_t i) const;
};

class Rng;

/// Poisson sample with the given mean: exact multiplicative inversion for
/// mean < kPoissonNormalCutoff, normal approximation above it (the error is
/// irrelevant at the population sizes involved). mean <= 0 (including NaN
/// guards upstream) yields 0. Shared by the publication-event and
/// swarm-arrival generators so the two cannot drift apart.
inline constexpr double kPoissonNormalCutoff = 64.0;
std::size_t sample_poisson(double mean, Rng& rng) noexcept;

}  // namespace btpub
