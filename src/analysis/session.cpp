#include "analysis/session.hpp"

#include <algorithm>
#include <cmath>

namespace btpub {

double discovery_probability(double w, double n, std::size_t m) {
  if (n <= 0.0 || w <= 0.0) return 0.0;
  if (w >= n) return 1.0;
  return 1.0 - std::pow(1.0 - w / n, static_cast<double>(m));
}

std::size_t queries_for_probability(double w, double n, double target) {
  // Degenerate inputs first: NaNs poison every comparison below, and a
  // publisher that can never appear in a reply window (w <= 0, or an empty
  // swarm) makes per_query_miss exactly 1, whose log is 0 — the division
  // would yield inf and casting inf to std::size_t is UB.
  if (std::isnan(w) || std::isnan(n) || std::isnan(target)) {
    return kQueriesUnreachable;
  }
  if (target <= 0.0) return 0;  // any nonpositive target is already met
  if (n <= 0.0 || w <= 0.0) return kQueriesUnreachable;
  if (w >= n) return 1;
  if (target >= 1.0) target = 1.0 - 1e-12;
  const double per_query_miss = 1.0 - w / n;
  const double queries =
      std::ceil(std::log(1.0 - target) / std::log(per_query_miss));
  if (!(queries >= 0.0) ||
      queries >= static_cast<double>(kQueriesUnreachable)) {
    return kQueriesUnreachable;
  }
  return static_cast<std::size_t>(queries);
}

std::vector<Interval> reconstruct_sessions(std::span<const SimTime> sightings,
                                           SimDuration offline_gap,
                                           SimDuration query_gap) {
  std::vector<Interval> sessions;
  if (sightings.empty()) return sessions;
  // A negative query gap would produce end < start intervals whose negative
  // lengths silently *subtract* seeding hours downstream; clamp to zero (a
  // lone sighting then contributes a zero-length session, never negative).
  if (query_gap < 0) query_gap = 0;
  // The gap rule below assumes ascending sightings. Merged multi-vantage
  // timelines (tracker + DHT machines interleaving) can arrive out of
  // order, and running the sweep on an unsorted span fabricates phantom
  // session splits at every backwards jump — inflating session counts and
  // seeding hours. Verify, and sort a local copy only when actually needed
  // (the common single-vantage path stays allocation-free).
  std::vector<SimTime> sorted;
  if (!std::is_sorted(sightings.begin(), sightings.end())) {
    sorted.assign(sightings.begin(), sightings.end());
    std::sort(sorted.begin(), sorted.end());
    sightings = sorted;
  }
  SimTime start = sightings.front();
  SimTime last = sightings.front();
  for (std::size_t i = 1; i < sightings.size(); ++i) {
    const SimTime t = sightings[i];
    if (t - last > offline_gap) {
      sessions.push_back(Interval{start, last + query_gap});
      start = t;
    }
    last = t;
  }
  sessions.push_back(Interval{start, last + query_gap});
  return sessions;
}

SimDuration union_length(std::vector<Interval> intervals) {
  if (intervals.empty()) return 0;
  std::sort(intervals.begin(), intervals.end(),
            [](const Interval& a, const Interval& b) { return a.start < b.start; });
  SimDuration total = 0;
  SimTime cover_end = intervals.front().start;
  for (const Interval& iv : intervals) {
    const SimTime begin = std::max(iv.start, cover_end);
    if (iv.end > begin) {
      total += iv.end - begin;
      cover_end = iv.end;
    } else {
      cover_end = std::max(cover_end, iv.end);
    }
  }
  return total;
}

SeedingMetrics seeding_metrics(const CompactDatasetView& view,
                               std::span<const std::size_t> torrent_indices,
                               SimDuration offline_gap) {
  SeedingMetrics metrics;
  std::vector<Interval> all_sessions;
  double total_seeded_hours = 0.0;
  for (const std::size_t index : torrent_indices) {
    const std::span<const SimTime> sightings =
        view.sightings_of(view.torrents[index]);
    if (sightings.empty()) continue;
    const auto sessions = reconstruct_sessions(sightings, offline_gap);
    SimDuration torrent_total = 0;
    for (const Interval& s : sessions) torrent_total += s.length();
    total_seeded_hours += to_hours(torrent_total);
    all_sessions.insert(all_sessions.end(), sessions.begin(), sessions.end());
    ++metrics.torrents_with_data;
  }
  if (metrics.torrents_with_data == 0) return metrics;
  metrics.avg_seeding_hours =
      total_seeded_hours / static_cast<double>(metrics.torrents_with_data);
  metrics.aggregated_session_hours = to_hours(union_length(all_sessions));
  metrics.avg_parallel_torrents =
      metrics.aggregated_session_hours > 0.0
          ? total_seeded_hours / metrics.aggregated_session_hours
          : 0.0;
  return metrics;
}

std::vector<SeedingBox> seeding_panel(const CompactDatasetView& view,
                                      const IdentityAnalysis& identity,
                                      std::size_t all_sample, Rng& rng,
                                      SimDuration offline_gap) {
  std::vector<SeedingBox> panel;
  for (const TargetGroup group : {TargetGroup::All, TargetGroup::Fake,
                                  TargetGroup::Top, TargetGroup::TopHP,
                                  TargetGroup::TopCI}) {
    std::vector<const UsernameStats*> members = identity.members(group);
    if (group == TargetGroup::All && all_sample > 0 &&
        members.size() > all_sample) {
      std::vector<const UsernameStats*> chosen;
      chosen.reserve(all_sample);
      for (std::size_t i : rng.sample_indices(members.size(), all_sample)) {
        chosen.push_back(members[i]);
      }
      members.swap(chosen);
    }
    std::vector<double> seeding_hours, parallel, aggregated;
    for (const UsernameStats* member : members) {
      const SeedingMetrics m = seeding_metrics(view, member->torrents, offline_gap);
      if (m.torrents_with_data == 0) continue;
      seeding_hours.push_back(m.avg_seeding_hours);
      parallel.push_back(m.avg_parallel_torrents);
      aggregated.push_back(m.aggregated_session_hours);
    }
    SeedingBox box;
    box.group = group;
    box.publishers = seeding_hours.size();
    box.seeding_time_hours = box_stats(seeding_hours);
    box.parallel_torrents = box_stats(parallel);
    box.aggregated_session_hours = box_stats(aggregated);
    panel.push_back(std::move(box));
  }
  return panel;
}

}  // namespace btpub
