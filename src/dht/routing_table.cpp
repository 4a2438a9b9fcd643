#include "dht/routing_table.hpp"

#include <algorithm>

namespace btpub::dht {

int RoutingTable::bucket_of(const NodeId& id) const noexcept {
  return distance_bit(distance_key(id, self_));
}

std::vector<Contact>::iterator RoutingTable::bucket_begin(int bucket) {
  return std::partition_point(
      contacts_.begin(), contacts_.end(),
      [&](const Contact& c) { return bucket_of(c.id) < bucket; });
}

std::vector<Contact>::const_iterator RoutingTable::bucket_begin(
    int bucket) const {
  return std::partition_point(
      contacts_.begin(), contacts_.end(),
      [&](const Contact& c) { return bucket_of(c.id) < bucket; });
}

void RoutingTable::observe(const NodeId& id, const Endpoint& endpoint,
                           SimTime now) {
  const int bit = bucket_of(id);
  if (bit < 0) return;  // own id
  const auto first = bucket_begin(bit);
  const auto last = bucket_begin(bit + 1);

  const auto it =
      std::find_if(first, last, [&](const Contact& c) { return c.id == id; });
  if (it != last) {
    // Refresh: move to the most-recently-seen end, keeping the rest in
    // last-seen order.
    it->endpoint = endpoint;
    it->last_seen = now;
    std::rotate(it, it + 1, last);
    return;
  }
  if (static_cast<std::size_t>(last - first) < kBucketSize) {
    contacts_.insert(last, Contact{id, endpoint, now});
    return;
  }
  // Full: the least-recently-seen contact sits at the front. Evict it only
  // when stale; otherwise the newcomer loses.
  if (now - first->last_seen > kStaleAfter) {
    *first = Contact{id, endpoint, now};
    std::rotate(first, first + 1, last);
  }
}

void RoutingTable::closest(const NodeId& target, std::size_t k,
                           std::vector<NodeInfo>& out) const {
  // With m = distance_bit(self ^ target), a contact in bucket i lies at
  // distance (self ^ id) ^ (self ^ target) from the target, whose highest
  // set bit is below m for i == m, exactly m for every i < m, and i for
  // i > m. So bucket m, then buckets 0..m-1, then each later bucket in
  // turn come in ascending distance: offered in that order, most contacts
  // past the first k are turned away by one compare with the farthest
  // taken so far, and once buckets 0..m are done with k taken the rest
  // can be skipped. XOR distances within one table are unique, so the
  // result equals a full sort truncated to k.
  out.clear();
  if (k == 0) return;
  const auto key_of = [&](const NodeId& id) { return distance_key(id, target); };
  // Keeps out sorted by distance with at most k contacts.
  const auto offer = [&](const Contact& c) {
    const DistanceKey key = key_of(c.id);
    if (out.size() == k) {
      if (!(key < key_of(out.back().id))) return;
      out.pop_back();
    }
    std::size_t at = out.size();
    while (at > 0 && key < key_of(out[at - 1].id)) --at;
    out.insert(out.begin() + static_cast<std::ptrdiff_t>(at),
               NodeInfo{c.id, c.endpoint});
  };
  // m = -1 (target == self) leaves both empty: every bucket is "later".
  const int m = distance_bit(distance_key(self_, target));
  const auto own = bucket_begin(m);
  const auto later = bucket_begin(m + 1);
  std::for_each(own, later, offer);
  std::for_each(contacts_.begin(), own, offer);
  if (out.size() == k) return;
  std::for_each(later, contacts_.end(), offer);
}

}  // namespace btpub::dht
