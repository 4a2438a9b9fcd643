// event_queue.hpp — the scheduled life of the DHT overlay: node joins at
// session arrival, departures, and periodic announce_peer refreshes, on a
// simulated clock. Events at equal timestamps run in scheduling order,
// which keeps runs deterministic.
//
// An event is a plain-old-data record, not a closure, and the caller of
// run_until dispatches it (DhtOverlay::advance_to switches on its kind). A
// periodic event is a *cursor*: dispatching it at t lazily re-arms the next
// occurrence at t + every while that stays below its stop time, so a
// session announcing every 30 minutes for a month costs one pending
// record, not window/30min of them.
#pragma once

#include <cstdint>
#include <queue>
#include <vector>

#include "crypto/sha1.hpp"
#include "net/ip.hpp"
#include "util/time.hpp"

namespace btpub::dht {

/// One scheduled overlay event. `every > 0` makes it a lazy periodic
/// cursor (see header comment).
struct OverlayEvent {
  enum class Kind : std::uint8_t {
    NodeJoin,   ///< endpoint joins the DHT overlay
    NodeLeave,  ///< endpoint departs the overlay
    Announce,   ///< endpoint announce_peer-s `infohash`
  };

  Kind kind = Kind::NodeJoin;
  Endpoint endpoint{};
  /// Announce only: the torrent being announced.
  Sha1Digest infohash{};
  /// Re-arm period; 0 = one-shot. A dispatched occurrence at time t
  /// schedules the next at t + every iff t + every < until.
  SimDuration every = 0;
  /// Exclusive stop time for periodic re-arming.
  SimTime until = 0;
};

/// Time-ordered, FIFO-within-a-timestamp queue of overlay events.
class EventQueue {
 public:
  /// Schedules `event` at absolute simulated time `at`. Scheduling in the
  /// past (before now()) is clamped to now().
  void schedule(SimTime at, const OverlayEvent& event) {
    if (at < now_) at = now_;
    ++scheduled_;
    queue_.push(Entry{at, next_seq_++, event});
  }

  /// Pops every event with timestamp <= deadline, in order, and calls
  /// `dispatch(event, at)` for each; the clock ends at max(now, deadline).
  /// A periodic cursor is re-armed before its dispatch, so the dispatcher
  /// sees a consistent pending() and may itself schedule more events.
  template <typename Dispatch>
  void run_until(SimTime deadline, Dispatch&& dispatch) {
    while (!queue_.empty() && queue_.top().at <= deadline) {
      const Entry entry = queue_.top();
      queue_.pop();
      now_ = entry.at;
      ++dispatched_;
      const OverlayEvent& event = entry.event;
      if (event.every > 0 && entry.at + event.every < event.until) {
        schedule(entry.at + event.every, event);
      }
      dispatch(event, entry.at);
    }
    if (now_ < deadline) now_ = deadline;
  }

  /// Current simulated time (time of the last dispatched event, or the
  /// last run_until deadline).
  SimTime now() const noexcept { return now_; }

  std::size_t pending() const noexcept { return queue_.size(); }
  std::uint64_t dispatched() const noexcept { return dispatched_; }
  /// Total schedule() calls, lazy re-arms included.
  std::uint64_t scheduled() const noexcept { return scheduled_; }

 private:
  struct Entry {
    SimTime at;
    std::uint64_t seq;  // tiebreaker: FIFO within a timestamp
    OverlayEvent event;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const noexcept {
      if (a.at != b.at) return a.at > b.at;
      return a.seq > b.seq;
    }
  };

  std::priority_queue<Entry, std::vector<Entry>, Later> queue_;
  SimTime now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t dispatched_ = 0;
  std::uint64_t scheduled_ = 0;
};

}  // namespace btpub::dht
