#include "swarm/swarm.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>

namespace btpub {

namespace {

/// Distinct IPs among real downloaders (neither the publisher nor spoofed),
/// read off `index`, which orders sessions by endpoint and so by IP first.
std::size_t count_distinct_downloader_ips(std::span<const PeerSession> sessions,
                                          std::span<const std::uint32_t> index) {
  std::size_t distinct = 0;
  const IpAddress* last = nullptr;
  for (const std::uint32_t i : index) {
    const PeerSession& s = sessions[i];
    if (s.is_publisher || s.spoofed) continue;
    if (last == nullptr || *last != s.endpoint.ip) ++distinct;
    last = &s.endpoint.ip;
  }
  return distinct;
}

}  // namespace

Swarm::Swarm(Sha1Digest infohash, std::size_t n_pieces, SimTime birth)
    : infohash_(infohash), n_pieces_(n_pieces == 0 ? 1 : n_pieces), birth_(birth) {}

void Swarm::add_session(PeerSession session) {
  if (finalized_) throw std::logic_error("Swarm: add_session after finalize");
  if (session.depart <= session.arrive) return;  // degenerate, drop
  staging_.push_back(session);
}

void Swarm::finalize() {
  if (finalized_) return;
  finalized_ = true;

  const auto n = static_cast<std::uint32_t>(staging_.size());
  PeerSession* sessions = arena_.copy_array(staging_.data(), staging_.size());
  sessions_ = {sessions, n};
  staging_ = {};  // release the growth buffer; the arena copy is canonical

  // Sweep events: 2 per session plus a Complete when it falls strictly
  // inside the session. Sized exactly, so one arena bump covers it.
  std::size_t n_events = 0;
  for (const PeerSession& s : sessions_) {
    n_events += 2 + (s.complete_at > s.arrive && s.complete_at < s.depart);
  }
  Event* events = arena_.alloc_array<Event>(n_events);
  std::size_t e = 0;
  for (std::uint32_t i = 0; i < n; ++i) {
    const PeerSession& s = sessions_[i];
    events[e++] = Event{s.arrive, EventKind::Arrive, i};
    if (s.complete_at > s.arrive && s.complete_at < s.depart) {
      events[e++] = Event{s.complete_at, EventKind::Complete, i};
    }
    events[e++] = Event{s.depart, EventKind::Depart, i};
    last_departure_ = std::max(last_departure_, s.depart);
  }
  std::sort(events, events + n_events, [](const Event& a, const Event& b) {
    if (a.at != b.at) return a.at < b.at;
    if (a.kind != b.kind) return a.kind < b.kind;
    return a.session < b.session;
  });
  events_ = {events, n_events};

  // Endpoint index: session indices ordered by (endpoint, insertion index).
  // find_peer binary-searches it; equal endpoints keep insertion order, so
  // the first matching present session wins exactly as the old per-endpoint
  // hash-map chains did.
  std::uint32_t* index = arena_.alloc_array<std::uint32_t>(n);
  for (std::uint32_t i = 0; i < n; ++i) index[i] = i;
  std::sort(index, index + n, [this](std::uint32_t a, std::uint32_t b) {
    if (sessions_[a].endpoint != sessions_[b].endpoint) {
      return sessions_[a].endpoint < sessions_[b].endpoint;
    }
    return a < b;
  });
  endpoint_index_ = {index, n};

  distinct_downloader_ips_ =
      count_distinct_downloader_ips(sessions_, endpoint_index_);
  rebuild_sweep();
}

void Swarm::rebuild_sweep() {
  next_event_ = 0;
  sweep_time_ = std::numeric_limits<SimTime>::min();
  present_.clear();
  position_.assign(sessions_.size(), kAbsent);
  counts_ = SwarmCounts{};
}

void Swarm::advance_to(SimTime t) {
  assert(finalized_);
  if (t < sweep_time_) rebuild_sweep();
  sweep_time_ = t;
  while (next_event_ < events_.size() && events_[next_event_].at <= t) {
    const Event& ev = events_[next_event_++];
    const PeerSession& s = sessions_[ev.session];
    switch (ev.kind) {
      case EventKind::Arrive:
        position_[ev.session] = static_cast<std::uint32_t>(present_.size());
        present_.push_back(ev.session);
        // Sessions that arrive already complete (the initial seeder) count
        // as seeders from the start.
        if (s.complete_at <= s.arrive) {
          ++counts_.seeders;
        } else {
          ++counts_.leechers;
        }
        break;
      case EventKind::Complete:
        --counts_.leechers;
        ++counts_.seeders;
        break;
      case EventKind::Depart: {
        const std::uint32_t pos = position_[ev.session];
        assert(pos != kAbsent);
        const std::uint32_t last = present_.back();
        present_[pos] = last;
        position_[last] = pos;
        present_.pop_back();
        position_[ev.session] = kAbsent;
        if (s.complete_at < s.depart) {
          --counts_.seeders;
        } else {
          --counts_.leechers;
        }
        break;
      }
    }
  }
}

SwarmCounts Swarm::counts_at(SimTime t) {
  advance_to(t);
  return counts_;
}

std::vector<const PeerSession*> Swarm::sample_peers(SimTime t, std::size_t k,
                                                    Rng& rng) {
  std::vector<const PeerSession*> out;
  SampleScratch scratch;
  sample_peers(t, k, rng, out, scratch);
  return out;
}

void Swarm::sample_peers(SimTime t, std::size_t k, Rng& rng,
                         std::vector<const PeerSession*>& out,
                         SampleScratch& scratch) {
  advance_to(t);
  out.clear();
  const std::size_t n = present_.size();
  if (n == 0 || k == 0) return;
  if (k >= n) {
    out.reserve(n);
    for (std::uint32_t idx : present_) out.push_back(&sessions_[idx]);
    return;
  }
  // Floyd's algorithm: k distinct uniform indices in O(k) expected time.
  // Membership lives in a reused flat vector (a linear scan over <= k
  // small integers beats per-node hash-set allocation at announce sizes);
  // the draw sequence and output order are identical to the hash-set
  // formulation, which announce-reply byte-identity depends on.
  std::vector<std::uint32_t>& chosen = scratch.chosen;
  chosen.clear();
  out.reserve(k);
  for (std::size_t j = n - k; j < n; ++j) {
    const auto r = static_cast<std::uint32_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(j)));
    const bool fresh =
        std::find(chosen.begin(), chosen.end(), r) == chosen.end();
    const std::uint32_t pick = fresh ? r : static_cast<std::uint32_t>(j);
    chosen.push_back(pick);
    out.push_back(&sessions_[present_[pick]]);
  }
}

const PeerSession* Swarm::find_peer(const Endpoint& endpoint, SimTime t) {
  assert(finalized_);
  const auto begin = std::partition_point(
      endpoint_index_.begin(), endpoint_index_.end(),
      [&](std::uint32_t idx) { return sessions_[idx].endpoint < endpoint; });
  for (auto it = begin; it != endpoint_index_.end(); ++it) {
    const PeerSession& s = sessions_[*it];
    if (s.endpoint != endpoint) break;
    if (s.present_at(t)) return &s;
  }
  return nullptr;
}

double Swarm::progress_at(const PeerSession& session, SimTime t) const {
  if (t < session.arrive) return 0.0;
  if (session.seeder_at(t)) return 1.0;
  // Linear toward the (possibly never reached) completion instant.
  const SimTime horizon = session.complete_at;
  if (horizon == std::numeric_limits<SimTime>::max() ||
      horizon <= session.arrive) {
    // Peer that will never complete: crawl toward 90% over its stay.
    const double frac = static_cast<double>(t - session.arrive) /
                        static_cast<double>(
                            std::max<SimTime>(session.depart - session.arrive, 1));
    return std::min(0.9, frac * 0.9);
  }
  const double frac = static_cast<double>(t - session.arrive) /
                      static_cast<double>(horizon - session.arrive);
  return std::clamp(frac, 0.0, 1.0);
}

Bitfield Swarm::bitfield_at(const PeerSession& session, SimTime t) const {
  Bitfield field(n_pieces_);
  const double progress = progress_at(session, t);
  const auto k = static_cast<std::size_t>(
      std::floor(progress * static_cast<double>(n_pieces_) + 1e-9));
  field.set_prefix(k);
  return field;
}

std::size_t Swarm::distinct_downloader_ips() const {
  if (!finalized_) {
    throw std::logic_error("Swarm: distinct_downloader_ips before finalize");
  }
  return distinct_downloader_ips_;
}

}  // namespace btpub
