#include "dht/routing_table.hpp"

#include <algorithm>

namespace btpub::dht {

void RoutingTable::observe(const NodeId& id, const Endpoint& endpoint,
                           SimTime now) {
  const int bit = distance_bit(distance(self_, id));
  if (bit < 0) return;  // own id
  Bucket& bucket = buckets_[static_cast<std::size_t>(bit)];

  const auto it = std::find_if(bucket.begin(), bucket.end(),
                               [&](const Contact& c) { return c.id == id; });
  if (it != bucket.end()) {
    // Refresh: move to the most-recently-seen end, keeping the rest in
    // last-seen order.
    Contact refreshed = *it;
    refreshed.endpoint = endpoint;
    refreshed.last_seen = now;
    bucket.erase(it);
    bucket.push_back(refreshed);
    return;
  }
  if (bucket.size() < kBucketSize) {
    bucket.push_back(Contact{id, endpoint, now});
    return;
  }
  // Full: the least-recently-seen contact sits at the front. Evict it only
  // when stale; otherwise the newcomer loses.
  if (now - bucket.front().last_seen > kStaleAfter) {
    bucket.erase(bucket.begin());
    bucket.push_back(Contact{id, endpoint, now});
  }
}

void RoutingTable::remove(const NodeId& id) {
  const int bit = distance_bit(distance(self_, id));
  if (bit < 0) return;
  Bucket& bucket = buckets_[static_cast<std::size_t>(bit)];
  const auto it = std::find_if(bucket.begin(), bucket.end(),
                               [&](const Contact& c) { return c.id == id; });
  if (it != bucket.end()) bucket.erase(it);
}

void RoutingTable::closest(const NodeId& target, std::size_t k,
                           std::vector<Contact>& out) const {
  // With m = distance_bit(self ^ target), a contact in bucket i lies at
  // distance (self ^ id) ^ (self ^ target) from the target, whose highest
  // set bit is below m for i == m, exactly m for every i < m, and i for
  // i > m. So the groups {m}, {0..m-1}, {m+1}, {m+2}, ... come in
  // ascending distance; only a group's own members need sorting, and the
  // walk stops once k contacts are taken. XOR distances within one table
  // are unique, so the result equals a full sort truncated to k.
  out.clear();
  if (k == 0) return;
  const auto by_distance = [&](const Contact& a, const Contact& b) {
    return closer(a.id, b.id, target);
  };
  // Sorts the group appended from `begin` on; true once k contacts are
  // taken (the surplus trimmed).
  const auto take_group = [&](std::size_t begin) {
    const auto first = out.begin() + static_cast<std::ptrdiff_t>(begin);
    if (out.size() <= k) {
      std::sort(first, out.end(), by_distance);
      return out.size() == k;
    }
    std::partial_sort(first, out.begin() + static_cast<std::ptrdiff_t>(k),
                      out.end(), by_distance);
    out.resize(k);
    return true;
  };
  const int m = distance_bit(distance(self_, target));
  if (m >= 0) {
    const Bucket& own = buckets_[static_cast<std::size_t>(m)];
    out.insert(out.end(), own.begin(), own.end());
    if (take_group(0)) return;
    const std::size_t begin = out.size();
    for (int i = 0; i < m; ++i) {
      const Bucket& bucket = buckets_[static_cast<std::size_t>(i)];
      out.insert(out.end(), bucket.begin(), bucket.end());
    }
    if (take_group(begin)) return;
  }
  for (int i = m + 1; i < static_cast<int>(buckets_.size()); ++i) {
    const Bucket& bucket = buckets_[static_cast<std::size_t>(i)];
    const std::size_t begin = out.size();
    out.insert(out.end(), bucket.begin(), bucket.end());
    if (take_group(begin)) return;
  }
}

std::size_t RoutingTable::size() const noexcept {
  std::size_t n = 0;
  for (const Bucket& bucket : buckets_) n += bucket.size();
  return n;
}

bool RoutingTable::contains(const NodeId& id) const {
  const int bit = distance_bit(distance(self_, id));
  if (bit < 0) return false;
  const Bucket& bucket = buckets_[static_cast<std::size_t>(bit)];
  return std::any_of(bucket.begin(), bucket.end(),
                     [&](const Contact& c) { return c.id == id; });
}

std::size_t RoutingTable::active_buckets() const noexcept {
  std::size_t n = 0;
  for (const Bucket& bucket : buckets_) n += bucket.empty() ? 0 : 1;
  return n;
}

}  // namespace btpub::dht
