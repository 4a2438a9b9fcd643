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

bool Tracker::is_blacklisted(IpAddress client) const {
  const Shard& shard = shard_for(client.value());
  std::lock_guard<std::mutex> lock(shard.mutex);
  return shard.blacklist.contains(client.value());
}

void Tracker::reset_state(std::uint64_t sample_seed) {
  sample_seed_ = sample_seed;
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mutex);
    shard.last_query.clear();
    shard.violations.clear();
    shard.blacklist.clear();
  }
}

Tracker::Stats Tracker::stats() const {
  Stats total;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mutex);
    total.queries += shard.stats.queries;
    total.rejected_rate += shard.stats.rejected_rate;
    total.rejected_blacklist += shard.stats.rejected_blacklist;
    total.rejected_unknown += shard.stats.rejected_unknown;
  }
  return total;
}

std::string Tracker::handle_get(std::string_view query_string) {
  const auto request = parse_query_string(query_string);
  AnnounceReply reply;
  std::string body;
  if (!request) {
    reply.ok = false;
    reply.failure_reason = "malformed request";
    encode_announce_reply_into(reply, body);
    return body;
  }
  AnnounceScratch scratch;
  announce_into(*request, reply, scratch);
  encode_announce_reply_into(reply, body);
  return body;
}

AnnounceReply Tracker::announce(const AnnounceRequest& request) {
  AnnounceReply reply;
  AnnounceScratch scratch;
  announce_into(request, reply, scratch);
  return reply;
}

void Tracker::announce_into(const AnnounceRequest& request, AnnounceReply& reply,
                            AnnounceScratch& scratch) {
  const std::uint32_t client_ip = request.client.ip.value();
  Shard& shard = shard_for(client_ip);
  reply.ok = false;
  reply.failure_reason.clear();
  reply.interval = enforced_gap_;
  reply.complete = 0;
  reply.incomplete = 0;
  reply.peers.clear();

  {
    std::lock_guard<std::mutex> lock(shard.mutex);
    ++shard.stats.queries;

    if (shard.blacklist.contains(client_ip)) {
      ++shard.stats.rejected_blacklist;
      reply.failure_reason = "client banned";
      return;
    }

    const ClientKey key{client_ip, request.infohash};
    const auto last = shard.last_query.find(key);
    if (last != shard.last_query.end() &&
        request.now - last->second < enforced_gap_) {
      ++shard.stats.rejected_rate;
      auto& count = shard.violations[client_ip];
      if (++count >= kBlacklistAfter) {
        shard.blacklist.insert(client_ip);
      }
      reply.failure_reason = "slow down";
      return;
    }
    shard.last_query[key] = request.now;
  }

  Swarm* const found = swarms_.find(request.infohash);
  if (found == nullptr) {
    std::lock_guard<std::mutex> lock(shard.mutex);
    ++shard.stats.rejected_unknown;
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
