// frontier.hpp — the candidate frontier of one iterative DHT walk.
//
// A Kademlia walk repeatedly asks the closest not-yet-queried nodes it
// knows of, and every answer adds more candidates. Re-ranking all of them
// each round costs a sort of everything seen so far; the frontier instead
// keeps its live, id-known candidates sorted by XOR distance to the target
// as they arrive, so a round reads its first k entries and pays only for
// the candidates that are new.
//
// A round's targets are exactly what a full re-sort would pick:
//   * every unqueried id-less entry (bootstrap hints and the router, whose
//     ids are unknown until they answer), in insertion order;
//   * then the unqueried entries among the k closest live id-known ones,
//     where live means "not queried yet, or answered". A candidate that
//     timed out or answered with an error leaves the ranking, so dead nodes
//     cannot clog the k closest slots and stall the walk;
//   * at most alpha targets in all.
// Distance ties only arise between equal ids, which one walk never holds
// under two endpoints (node ids derive from endpoints).
//
// Both the frontier and its endpoint set are reused across walks: reset()
// clears them without freeing, so a warm walk allocates nothing.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "dht/node_id.hpp"
#include "net/ip.hpp"
#include "util/key_set.hpp"

namespace btpub::dht {

/// An endpoint as one KeySet key: the address above the port.
inline std::uint64_t endpoint_key(const Endpoint& endpoint) noexcept {
  return (std::uint64_t{endpoint.ip.value()} << 16) | endpoint.port;
}

class Frontier {
 public:
  struct Candidate {
    NodeId id{};
    Endpoint endpoint{};
    bool id_known = false;
    bool queried = false;
    bool responded = false;
  };

  /// Starts a walk towards `target` from `self`, which is never a
  /// candidate.
  void reset(const NodeId& target, const Endpoint& self);

  /// Adds a candidate unless its endpoint is `self` or already known;
  /// `id` is null for an id-less bootstrap entry.
  void add(const Endpoint& endpoint, const NodeId* id);

  /// Fills `round` (cleared first) with the next query targets, as set out
  /// above: id-less entries first, then the unqueried among the first `k`
  /// live ranked ones, at most `alpha` in all. Empty when the walk has
  /// converged. Marks nothing: call mark_queried() for each target sent.
  void select(std::size_t k, std::size_t alpha,
              std::vector<std::uint32_t>& round) const;

  void mark_queried(std::uint32_t index);
  /// The queried candidate answered as `id`: it stays ranked, re-ranked
  /// under `id` when that id is new or differs from the one it was
  /// advertised with.
  void responded(std::uint32_t index, const NodeId& id);
  /// The queried candidate timed out or answered with an error or a bogus
  /// reply: it leaves the ranking.
  void failed(std::uint32_t index);

  /// Appends the indices of up to `k` responders closest to the target,
  /// closest first, to `out` (cleared first).
  void closest_responders(std::size_t k,
                          std::vector<std::uint32_t>& out) const;

  const Candidate& operator[](std::uint32_t index) const {
    return candidates_[index];
  }
  std::size_t size() const noexcept { return candidates_.size(); }

 private:
  struct Ranked {
    DistanceKey key;
    std::uint32_t index = 0;
  };

  void rank(std::uint32_t index);
  void unrank(std::uint32_t index);

  NodeId target_{};
  Endpoint self_{};
  std::vector<Candidate> candidates_;
  KeySet known_;  // endpoint_key of every candidate
  /// Live id-known candidates, ascending distance to target_.
  std::vector<Ranked> ranked_;
  /// Id-less candidates in insertion order; the first `idless_queried_`
  /// of them have been queried.
  std::vector<std::uint32_t> idless_;
  std::size_t idless_queried_ = 0;
};

}  // namespace btpub::dht
