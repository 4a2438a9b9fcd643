#include "tracker/tracker.hpp"

#include <stdexcept>

#include "bencode/bencode.hpp"

namespace btpub {

Tracker::Tracker(TrackerConfig config, Rng rng)
    : config_(std::move(config)) {
  if (config_.max_query_gap < config_.min_query_gap) {
    throw std::invalid_argument("Tracker: max_query_gap < min_query_gap");
  }
  enforced_gap_ = config_.min_query_gap +
                  static_cast<SimDuration>(
                      rng.uniform() *
                      static_cast<double>(config_.max_query_gap -
                                          config_.min_query_gap));
  sample_seed_ = rng.next();
}

void Tracker::host_swarm(Swarm& swarm) {
  if (!swarm.finalized()) {
    throw std::logic_error("Tracker: swarm must be finalized before hosting");
  }
  swarms_.insert(swarm.infohash(), &swarm);
}

void Tracker::reset_state(std::uint64_t sample_seed) {
  sample_seed_ = sample_seed;
  last_query_.clear();
  violations_.clear();
  blacklist_.clear();
}

void Tracker::announce_into(const AnnounceRequest& request, AnnounceReply& reply,
                            AnnounceScratch& scratch) {
  const std::uint32_t client_ip = request.client.ip.value();
  reply.ok = false;
  reply.failure_reason.clear();
  reply.interval = enforced_gap_;
  reply.complete = 0;
  reply.incomplete = 0;
  reply.peers.clear();
  ++stats_.queries;

  if (blacklist_.contains(client_ip)) {
    ++stats_.rejected_blacklist;
    reply.failure_reason = "client banned";
    return;
  }

  // One probe: a first query inserts its time, a later one finds the last.
  const auto [last, first] =
      last_query_.try_emplace(ClientKey{client_ip, request.infohash}, request.now);
  if (!first) {
    if (request.now - last->second < enforced_gap_) {
      ++stats_.rejected_rate;
      if (++violations_[client_ip] >= kBlacklistAfter) {
        blacklist_.insert(client_ip);
      }
      reply.failure_reason = "slow down";
      return;
    }
    last->second = request.now;
  }

  Swarm* const found = swarms_.find(request.infohash);
  if (found == nullptr) {
    ++stats_.rejected_unknown;
    reply.failure_reason = "unregistered torrent";
    return;
  }

  Swarm& swarm = *found;
  const SwarmCounts counts = swarm.counts_at(request.now);
  reply.ok = true;
  reply.complete = counts.seeders;
  reply.incomplete = counts.leechers;
  const std::size_t want = std::min(request.numwant, config_.max_numwant);
  // Stateless sampling stream: the draw is a pure function of the query
  // identity, so replies do not depend on announce ordering across swarms.
  Rng sample_rng(derive_seed(
      sample_seed_,
      static_cast<std::uint64_t>(std::hash<Sha1Digest>{}(request.infohash)),
      static_cast<std::uint64_t>(request.now), client_ip));
  swarm.sample_peers(request.now, want, sample_rng, scratch.sampled,
                     scratch.sample);
  reply.peers.reserve(scratch.sampled.size());
  for (const PeerSession* session : scratch.sampled) {
    reply.peers.push_back(session->endpoint);
  }
}

std::optional<Tracker::ScrapeCounts> Tracker::scrape_counts(
    const Sha1Digest& infohash, SimTime now) {
  Swarm* const swarm = swarms_.find(infohash);
  if (swarm == nullptr) return std::nullopt;
  const SwarmCounts counts = swarm->counts_at(now);
  ScrapeCounts out;
  out.complete = static_cast<std::uint32_t>(counts.seeders);
  out.incomplete = static_cast<std::uint32_t>(counts.leechers);
  out.downloaded = static_cast<std::uint32_t>(swarm->session_count());
  return out;
}

std::string Tracker::scrape(const Sha1Digest& infohash, SimTime now) {
  std::string out;
  bencode::Writer w(out);
  w.begin_dict();
  w.key("files");
  w.begin_dict();
  if (const auto counts = scrape_counts(infohash, now)) {
    w.key(std::string_view(reinterpret_cast<const char*>(infohash.bytes.data()),
                           infohash.bytes.size()));
    w.begin_dict();
    w.key("complete");
    w.integer(counts->complete);
    w.key("downloaded");
    w.integer(counts->downloaded);
    w.key("incomplete");
    w.integer(counts->incomplete);
    w.end();
  }
  w.end();
  w.end();
  return out;
}

}  // namespace btpub
