// routing_table.hpp — Kademlia k-bucket routing table (BEP 5).
//
// 160 buckets indexed by the bit length of the XOR distance to the owning
// node's id; bucket i holds up to k contacts whose distance has its highest
// set bit at position i. Within a bucket, contacts are kept ordered by
// last-seen time (most recently seen last — the classic Kademlia LRU
// discipline). A table holds a few dozen contacts spread over a handful
// of buckets, so they live in one flat vector grouped by bucket index:
// a lookup reads one contiguous run instead of 160 bucket headers and a
// heap block per bucket, and an idle table costs no bucket array. A full bucket evicts its least-recently-seen contact only
// when that contact has gone stale (no traffic for kStaleAfter); otherwise
// the newcomer is dropped, which is what gives the DHT its resistance to
// table-flushing churn. All policies are deterministic: no liveness pings,
// no randomised replacement.
#pragma once

#include <cstddef>
#include <vector>

#include "dht/node_id.hpp"
#include "util/time.hpp"

namespace btpub::dht {

/// One routing-table contact.
struct Contact {
  NodeId id{};
  Endpoint endpoint{};
  SimTime last_seen = 0;
};

class RoutingTable {
 public:
  /// Contacts per bucket (the Mainline k).
  static constexpr std::size_t kBucketSize = 8;
  /// A contact this quiet may be evicted in favour of a newcomer.
  static constexpr SimDuration kStaleAfter = minutes(15);

  explicit RoutingTable(NodeId self) : self_(self) {}

  const NodeId& self() const noexcept { return self_; }

  /// Records traffic from a node: refreshes its last-seen slot or inserts
  /// it, applying the full-bucket eviction policy. The own id is ignored.
  void observe(const NodeId& id, const Endpoint& endpoint, SimTime now);

  /// Appends up to `k` contacts closest to `target` (XOR order, closest
  /// first) to `out`, which is cleared first. Callers need only ids and
  /// endpoints (the k nodes of a reply, a walk's seeds), so `out` takes
  /// NodeInfo: a reply's nodes are filled in place.
  void closest(const NodeId& target, std::size_t k,
               std::vector<NodeInfo>& out) const;

 private:
  /// The bucket index of `id` (-1 for the own id).
  int bucket_of(const NodeId& id) const noexcept;
  /// The first contact of bucket `bucket` or of a later one.
  std::vector<Contact>::iterator bucket_begin(int bucket);
  std::vector<Contact>::const_iterator bucket_begin(int bucket) const;

  NodeId self_;
  /// Every contact, ascending by bucket index; within a bucket last-seen
  /// ascending.
  std::vector<Contact> contacts_;
};

}  // namespace btpub::dht
