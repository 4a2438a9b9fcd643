#include "dht/frontier.hpp"

#include <algorithm>

namespace btpub::dht {

void Frontier::reset(const NodeId& target, const Endpoint& self) {
  target_ = target;
  self_ = self;
  candidates_.clear();
  known_.clear();
  ranked_.clear();
  idless_.clear();
  idless_queried_ = 0;
}

void Frontier::add(const Endpoint& endpoint, const NodeId* id) {
  if (endpoint == self_ || !known_.insert(endpoint_key(endpoint))) return;
  const auto index = static_cast<std::uint32_t>(candidates_.size());
  Candidate& c = candidates_.emplace_back();
  c.endpoint = endpoint;
  if (id == nullptr) {
    idless_.push_back(index);
    return;
  }
  c.id = *id;
  c.id_known = true;
  rank(index);
}

void Frontier::select(std::size_t k, std::size_t alpha,
                      std::vector<std::uint32_t>& round) const {
  round.clear();
  for (std::size_t i = idless_queried_; i < idless_.size(); ++i) {
    if (round.size() == alpha) return;
    const std::uint32_t index = idless_[i];
    if (!candidates_[index].queried) round.push_back(index);
  }
  std::size_t window = 0;
  for (const Ranked& r : ranked_) {
    if (window == k || round.size() >= alpha) break;
    const Candidate& c = candidates_[r.index];
    // Awaiting its answer: neither live nor dead yet, so it takes no slot.
    // (A walk selects only between rounds, when nothing is pending.)
    if (c.queried && !c.responded) continue;
    ++window;
    if (!c.queried) round.push_back(r.index);
  }
}

void Frontier::mark_queried(std::uint32_t index) {
  candidates_[index].queried = true;
  while (idless_queried_ < idless_.size() &&
         candidates_[idless_[idless_queried_]].queried) {
    ++idless_queried_;
  }
}

void Frontier::responded(std::uint32_t index, const NodeId& id) {
  Candidate& c = candidates_[index];
  c.responded = true;
  if (c.id_known && c.id == id) return;
  if (c.id_known) unrank(index);
  c.id = id;
  c.id_known = true;
  rank(index);
}

void Frontier::failed(std::uint32_t index) {
  if (candidates_[index].id_known) unrank(index);
}

void Frontier::closest_responders(std::size_t k,
                                  std::vector<std::uint32_t>& out) const {
  out.clear();
  for (const Ranked& r : ranked_) {
    if (out.size() == k) break;
    if (candidates_[r.index].responded) out.push_back(r.index);
  }
}

void Frontier::rank(std::uint32_t index) {
  const Ranked entry{distance_key(candidates_[index].id, target_), index};
  const auto at = std::upper_bound(
      ranked_.begin(), ranked_.end(), entry,
      [](const Ranked& a, const Ranked& b) { return a.key < b.key; });
  ranked_.insert(at, entry);
}

void Frontier::unrank(std::uint32_t index) {
  const DistanceKey key = distance_key(candidates_[index].id, target_);
  auto at = std::lower_bound(
      ranked_.begin(), ranked_.end(), key,
      [](const Ranked& a, const DistanceKey& k) { return a.key < k; });
  while (at != ranked_.end() && at->index != index) ++at;
  if (at != ranked_.end()) ranked_.erase(at);
}

}  // namespace btpub::dht
