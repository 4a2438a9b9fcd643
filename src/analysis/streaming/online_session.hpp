// online_session.hpp — the Appendix-A session estimator, made incremental.
//
// The batch estimator (analysis/session.hpp) reconstructs presence sessions
// from a *finished*, sorted sighting list: consecutive sightings closer than
// `offline_gap` form one session [first, last + query_gap). This class
// maintains exactly those sessions while sightings arrive one at a time and
// in ANY order (merged tracker + DHT vantages interleave arbitrarily):
// sessions are kept as an ordered map of clusters keyed by first-sighting
// time, and each insertion either joins the preceding cluster, opens a new
// one, or bridges two clusters into one — O(log sessions) per sighting,
// O(sessions) memory, no sighting list retained.
//
// Invariant (pinned by the convergence tests): after any permutation of the
// same sighting multiset, intervals() equals reconstruct_sessions() over
// the sorted list. A single sighting therefore yields exactly one
// query_gap-long session — never zero hours.
#pragma once

#include <limits>
#include <map>
#include <vector>

#include "analysis/session.hpp"
#include "util/time.hpp"

namespace btpub {

class OnlineSessionEstimator {
 public:
  explicit OnlineSessionEstimator(SimDuration offline_gap = kSessionOfflineGap,
                                  SimDuration query_gap = kSessionQueryGap)
      : offline_gap_(offline_gap),
        query_gap_(query_gap < 0 ? 0 : query_gap) {}

  /// Consumes one sighting; duplicates and out-of-order arrivals are fine.
  void add_sighting(SimTime t);

  std::size_t session_count() const noexcept { return clusters_.size(); }
  std::size_t sighting_count() const noexcept { return sightings_; }
  /// Sightings that arrived at or before the latest one seen so far (the
  /// multi-vantage merge telemetry; does not affect the estimate).
  std::size_t out_of_order_count() const noexcept { return out_of_order_; }

  /// Total estimated presence time: sum over sessions of
  /// (last - first + query_gap). Maintained incrementally, O(1) to read.
  SimDuration total_session_length() const noexcept {
    return span_sum_ + static_cast<SimDuration>(clusters_.size()) * query_gap_;
  }

  /// Materializes the current sessions, ascending, batch-identical.
  std::vector<Interval> intervals() const;

 private:
  SimDuration offline_gap_;
  SimDuration query_gap_;
  /// first sighting -> last sighting, per cluster. Disjoint: consecutive
  /// clusters are separated by more than offline_gap.
  std::map<SimTime, SimTime> clusters_;
  /// Sum over clusters of (last - first); query gaps are added on read.
  SimDuration span_sum_ = 0;
  std::size_t sightings_ = 0;
  std::size_t out_of_order_ = 0;
  SimTime newest_ = std::numeric_limits<SimTime>::min();
};

}  // namespace btpub
