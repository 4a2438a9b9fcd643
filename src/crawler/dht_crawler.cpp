#include "crawler/dht_crawler.hpp"

#include <algorithm>
#include <queue>
#include <unordered_set>

#include "crawler/discovery.hpp"
#include "torrent/magnet.hpp"

namespace btpub {

DhtCrawler::DhtCrawler(const Portal& portal, dht::DhtOverlay& overlay,
                       DhtCrawlerConfig config, std::uint64_t seed)
    : portal_(&portal),
      overlay_(&overlay),
      config_(std::move(config)),
      seed_(seed) {
  if (!config_.bootstrap_magnet.empty()) {
    if (const auto link = MagnetLink::parse(config_.bootstrap_magnet)) {
      bootstrap_ = link->peers;
    }
  }
}

Endpoint DhtCrawler::vantage() const {
  // 10.88.0.0/16: the DHT measurement box, distinct from both the tracker
  // vantages (10.77/16) and the overlay router (10.99/16).
  return Endpoint{IpAddress(10, 88, 0, 1), 6881};
}

Dataset DhtCrawler::crawl_window(SimTime window_start, SimTime window_end) {
  Dataset dataset;
  dataset.style = config_.style;
  dataset.name = std::string(to_string(config_.style)) + "-dht";
  dataset.window_start = window_start;
  dataset.window_end = window_end;
  totals_ = DhtCrawlTotals{};

  const SimTime hard_stop = window_end + kCrawlGrace;

  // The tracker crawler's torrents, discovered by the same rule
  // (discovery.hpp); the jitter comes from this vantage's own seed.
  struct Monitor {
    TorrentId id = kInvalidTorrent;
    TorrentRecord record;
    std::vector<IpAddress> ips;
    std::unordered_set<IpAddress> seen;
    std::uint32_t consecutive_empty = 0;
    bool discovered = false;
  };
  std::vector<Monitor> monitors;

  struct Poll {
    SimTime at;
    std::size_t monitor;
  };
  struct LaterPoll {
    bool operator()(const Poll& a, const Poll& b) const noexcept {
      if (a.at != b.at) return a.at > b.at;
      return a.monitor > b.monitor;  // portal-id order within a timestamp
    }
  };
  std::priority_queue<Poll, std::vector<Poll>, LaterPoll> schedule;

  for (const WindowTorrent& torrent :
       window_torrents(*portal_, window_start, window_end, kRssPoll, seed_)) {
    Monitor monitor;
    monitor.id = torrent.id;
    schedule.push(Poll{torrent.discovery, monitors.size()});
    monitors.push_back(std::move(monitor));
  }

  // One global polling loop: every pop advances the overlay monotonically,
  // so the scheduled overlay life (joins, announces, departures) interleaves
  // with the measurement exactly once, in time order.
  while (!schedule.empty()) {
    const Poll poll = schedule.top();
    schedule.pop();
    Monitor& m = monitors[poll.monitor];
    const SimTime now = poll.at;

    if (!m.discovered) {
      auto record = fetch_record(*portal_, m.id, now, config_.style);
      if (!record) continue;  // gone before the first fetch, or malformed
      m.record = std::move(*record);
      m.record.first_seen = now;
      m.discovered = true;
      if (observer_) observer_->on_discover(m.record, now);
    } else {
      check_removal(*portal_, m.record, now, observer_);
    }

    overlay_->advance_to(now);
    dht::LookupStats stats;
    const std::vector<Endpoint> peers = overlay_->get_peers(
        m.record.infohash, vantage(), now, &stats, bootstrap_,
        /*read_only=*/true);
    ++m.record.query_count;
    ++totals_.lookups;
    totals_.messages += stats.messages;
    totals_.timeouts += stats.timeouts;
    totals_.hops += stats.hops;
    totals_.max_hops = std::max(totals_.max_hops, stats.hops);
    if (m.record.query_count == 1) {
      m.record.initial_peers = static_cast<std::uint32_t>(peers.size());
    }
    m.record.max_concurrent = std::max(
        m.record.max_concurrent, static_cast<std::uint32_t>(peers.size()));
    for (const Endpoint& peer : peers) {
      if (m.seen.insert(peer.ip).second) m.ips.push_back(peer.ip);
    }
    if (observer_ && !peers.empty()) {
      observed_.clear();
      for (const Endpoint& peer : peers) observed_.push_back(peer.ip);
      observer_->on_downloaders(m.id, observed_, now);
    }
    if (peers.empty()) {
      if (++m.consecutive_empty >= kEmptyLookupsToStop) continue;
    } else {
      m.consecutive_empty = 0;
    }
    const SimTime next = now + kDhtPollInterval;
    if (next <= hard_stop) schedule.push(Poll{next, poll.monitor});
  }

  for (Monitor& m : monitors) {
    if (!m.discovered) continue;
    dataset.torrents.push_back(std::move(m.record));
    dataset.downloaders.push_back(std::move(m.ips));
    dataset.publisher_sightings.emplace_back();  // no probe at this vantage
  }
  snapshot_user_pages(*portal_, dataset, hard_stop, observer_);
  return dataset;
}

}  // namespace btpub
