// session.hpp — the Appendix-A session estimator and the seeding-behaviour
// metrics of §4.3 (Figure 4).
//
// A tracker query returns only a random W-subset of the N participants, so
// publisher presence is observed through sparse sightings. Appendix A
// derives P = 1 - (1 - W/N)^m for the probability of catching a present
// peer within m queries and concludes that a 4-hour sighting gap implies
// the peer left. reconstruct_sessions applies exactly that rule; the
// seeding metrics aggregate the reconstructed sessions per publisher.
#pragma once

#include <limits>
#include <span>

#include "analysis/groups.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/time.hpp"

namespace btpub {

/// Appendix A's offline rule: a sighting gap longer than this means the
/// peer left (the paper's 4 h; robustness checked at 2 h and 6 h).
inline constexpr SimDuration kSessionOfflineGap = hours(4);
/// One nominal tracker query gap: a session runs from its first sighting
/// to this long after its last.
inline constexpr SimDuration kSessionQueryGap = minutes(15);

/// Appendix A, equation (1): probability that a peer present in a torrent
/// of N peers is returned at least once over m queries of W random peers.
double discovery_probability(double w, double n, std::size_t m);

/// Sentinel returned by queries_for_probability when no finite number of
/// queries can reach the target (W <= 0, empty swarm, or NaN inputs).
inline constexpr std::size_t kQueriesUnreachable =
    std::numeric_limits<std::size_t>::max();

/// Queries needed for discovery_probability >= target (Appendix A solves
/// this for W=50, N=165, target 0.99 -> m = 13). Degenerate inputs return
/// kQueriesUnreachable (never observable) or 0 (target already met).
std::size_t queries_for_probability(double w, double n, double target);

/// Turns sparse sighting times into presence sessions: consecutive
/// sightings closer than `offline_gap` belong to one session. Unsorted input
/// (merged multi-vantage timelines) is detected and sorted defensively —
/// the result is always the sorted-order reconstruction. Each session is
/// [first_sighting, last_sighting + one nominal query gap); a single
/// sighting yields exactly one query_gap-long session. Negative query gaps
/// are clamped to zero.
std::vector<Interval> reconstruct_sessions(
    std::span<const SimTime> sightings, SimDuration offline_gap,
    SimDuration query_gap = kSessionQueryGap);

/// Union length of a set of (possibly overlapping) intervals.
SimDuration union_length(std::vector<Interval> intervals);

/// Figure-4 metrics for one publisher, from its per-torrent sightings.
struct SeedingMetrics {
  /// (a) mean over torrents of the total reconstructed seeding time.
  double avg_seeding_hours = 0.0;
  /// (b) time-weighted average number of torrents seeded in parallel
  /// (total seeded hours / union-of-session hours).
  double avg_parallel_torrents = 0.0;
  /// (c) aggregated session time across all torrents (union), in hours.
  double aggregated_session_hours = 0.0;
  std::size_t torrents_with_data = 0;
};

/// Computes the metrics for one publisher given the indices of its
/// torrents; sightings come from the view's flat sightings array.
SeedingMetrics seeding_metrics(const CompactDatasetView& view,
                               std::span<const std::size_t> torrent_indices,
                               SimDuration offline_gap = kSessionOfflineGap);

/// The Figure-4 panel: per-group box plots over publishers. "All" is
/// subsampled to `all_sample` (the paper's random 400). Publishers without
/// any identified-IP sightings carry no signal and are skipped.
struct SeedingBox {
  TargetGroup group = TargetGroup::All;
  BoxStats seeding_time_hours;
  BoxStats parallel_torrents;
  BoxStats aggregated_session_hours;
  std::size_t publishers = 0;
};

/// The "All" subsample is drawn from `rng` in group order.
std::vector<SeedingBox> seeding_panel(
    const CompactDatasetView& view, const IdentityAnalysis& identity,
    std::size_t all_sample, Rng& rng,
    SimDuration offline_gap = kSessionOfflineGap);

}  // namespace btpub
