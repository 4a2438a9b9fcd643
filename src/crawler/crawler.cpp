#include "crawler/crawler.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "torrent/wire.hpp"

namespace btpub {

Crawler::Crawler(const Portal& portal, Tracker& tracker, SwarmNetwork& network,
                 const GeoDb& geo, CrawlerConfig config, std::uint64_t seed)
    : portal_(&portal),
      tracker_(&tracker),
      network_(&network),
      geo_(&geo),
      config_(std::move(config)),
      seed_(seed) {}

Endpoint Crawler::vantage(std::size_t index) const {
  // Measurement machines live in 10.77.0.0/16, outside the simulated
  // Internet's GeoIP space, so they never collide with peers.
  return Endpoint{IpAddress(10, 77, static_cast<std::uint8_t>(index >> 8),
                            static_cast<std::uint8_t>(index & 0xff)),
                  6881};
}

void Crawler::record_reply(const AnnounceReply& reply, TorrentRecord& record,
                           std::vector<IpAddress>& ips,
                           std::vector<SimTime>& sightings, SimTime now) {
  record.max_concurrent =
      std::max(record.max_concurrent, reply.complete + reply.incomplete);
  scratch_.observed.clear();
  for (const Endpoint& peer : reply.peers) {
    if (record.publisher_ip && peer.ip == *record.publisher_ip) {
      sightings.push_back(now);
      if (observer_) observer_->on_publisher_sighting(record.portal_id, now);
      continue;
    }
    if (scratch_.seen.insert(peer.ip.value())) ips.push_back(peer.ip);
    if (observer_) scratch_.observed.push_back(peer.ip);
  }
  if (observer_ && !scratch_.observed.empty()) {
    observer_->on_downloaders(record.portal_id, scratch_.observed, now);
  }
}

void Crawler::first_contact(TorrentRecord& record, std::vector<IpAddress>& ips,
                            std::vector<SimTime>& sightings, SimTime now) {
  AnnounceRequest request;
  request.infohash = record.infohash;
  request.client = vantage(0);
  request.numwant = kCrawlerNumwant;
  request.now = now;
  // Struct-level announce: the reply the HTTP listener would encode, minus
  // the encode/parse work — announce_fastpath_test's golden response pins
  // the wire bytes of that path.
  tracker_->announce_into(request, scratch_.reply, scratch_.announce);
  const AnnounceReply& reply = scratch_.reply;
  record.first_seen = now;
  ++record.query_count;
  if (reply.ok) {
    record.initial_seeders = reply.complete;
    record.initial_peers = reply.complete + reply.incomplete;

    // Initial-seeder identification: only feasible in a young swarm with a
    // single seeder and few participants (§2). Probe every returned peer and
    // look for the complete bitfield.
    if (reply.complete == 1 && record.initial_peers < config_.max_probe_peers) {
      for (const Endpoint& peer : reply.peers) {
        const auto probe = network_->probe(record.infohash, peer, now);
        if (!probe) continue;  // NAT or gone
        const auto handshake = Handshake::decode(probe->handshake);
        if (!handshake || handshake->infohash != record.infohash) continue;
        const auto body = decode_bitfield_message(probe->bitfield);
        if (!body) continue;
        Bitfield field;
        try {
          field = Bitfield::from_bytes(*body, record.piece_count);
        } catch (const std::invalid_argument&) {
          continue;
        }
        if (field.complete()) {
          record.publisher_ip = peer.ip;
          break;
        }
      }
    }
  }
  // Discovery streams out after the probe so the observer learns the
  // identified publisher with the record, and before any peer push so
  // on_discover always precedes the per-peer hooks.
  if (observer_) observer_->on_discover(record, now);
  if (reply.ok) record_reply(reply, record, ips, sightings, now);
}

void Crawler::monitor(TorrentRecord& record, std::vector<IpAddress>& ips,
                      std::vector<SimTime>& sightings, SimTime hard_stop) {
  // Each vantage machine queries at the fastest allowed cadence; their
  // schedules are staggered so aggregated resolution is gap/vantage_points.
  const SimDuration gap = tracker_->enforced_gap() + kSecond;
  const std::size_t n_vantage = std::max<std::size_t>(config_.vantage_points, 1);
  const SimDuration stagger = gap / static_cast<SimDuration>(n_vantage);

  std::uint32_t consecutive_empty = 0;
  SimTime next_page_check = record.first_seen + kPageRecheck;
  std::uint64_t tick = 1;
  while (true) {
    const std::size_t machine = tick % n_vantage;
    const SimTime now = record.first_seen +
                        static_cast<SimTime>(tick / n_vantage) * gap +
                        static_cast<SimTime>(machine) * stagger;
    ++tick;
    if (now > hard_stop) break;

    AnnounceRequest request;
    request.infohash = record.infohash;
    request.client = vantage(machine);
    request.numwant = kCrawlerNumwant;
    request.now = now;
    tracker_->announce_into(request, scratch_.reply, scratch_.announce);
    const AnnounceReply& reply = scratch_.reply;
    ++record.query_count;
    if (reply.ok) {
      record_reply(reply, record, ips, sightings, now);
      if (reply.peers.empty()) {
        if (++consecutive_empty >= config_.empty_replies_to_stop) break;
      } else {
        consecutive_empty = 0;
      }
    }

    if (now >= next_page_check) {
      check_removal(*portal_, record, now, observer_);
      next_page_check = now + kPageRecheck;
    }
  }
}

std::optional<TorrentRecord> Crawler::discover(TorrentId id, SimTime now,
                                               std::vector<IpAddress>& downloaders,
                                               std::vector<SimTime>& sightings) {
  scratch_.seen.clear();  // per-torrent dedup; capacity is kept
  auto record = fetch_record(*portal_, id, now, config_.style);
  if (record) first_contact(*record, downloaders, sightings, now);
  return record;
}

Dataset Crawler::crawl_window(SimTime window_start, SimTime window_end) {
  Dataset dataset;
  dataset.style = config_.style;
  dataset.name = std::string(to_string(config_.style));
  dataset.window_start = window_start;
  dataset.window_end = window_end;

  const std::vector<WindowTorrent> torrents =
      window_torrents(*portal_, window_start, window_end, config_.rss_poll,
                      seed_);

  for (const WindowTorrent& torrent : torrents) {
    std::vector<IpAddress> downloaders;
    std::vector<SimTime> sightings;
    auto record = discover(torrent.id, torrent.discovery, downloaders, sightings);
    if (!record) continue;  // removed before we could fetch it
    if (config_.style != DatasetStyle::Pb09) {
      monitor(*record, downloaders, sightings, window_end + kCrawlGrace);
    }
    dataset.torrents.push_back(std::move(*record));
    dataset.downloaders.push_back(std::move(downloaders));
    dataset.publisher_sightings.push_back(std::move(sightings));
  }

  snapshot_user_pages(*portal_, dataset, window_end + kCrawlGrace,
                      observer_);
  return dataset;
}

}  // namespace btpub
