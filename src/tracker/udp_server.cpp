#include "tracker/udp_server.hpp"

namespace btpub {
namespace {

// Big-endian appenders shared with udp.cpp's codec (duplicated rather than
// exported: three lines each, and the codec's namespace is private).
void put_u16(std::string& out, std::uint16_t v) {
  out.push_back(static_cast<char>(v >> 8));
  out.push_back(static_cast<char>(v & 0xff));
}

void put_u32(std::string& out, std::uint32_t v) {
  put_u16(out, static_cast<std::uint16_t>(v >> 16));
  put_u16(out, static_cast<std::uint16_t>(v & 0xffff));
}

}  // namespace

void UdpTrackerEndpoint::error_into(std::uint32_t transaction_id,
                                    std::string_view message,
                                    std::string& out) const {
  // Same bytes as UdpErrorResponse::encode_into without routing the
  // message text through a std::string member.
  out.clear();
  put_u32(out, static_cast<std::uint32_t>(UdpAction::Error));
  put_u32(out, transaction_id);
  out.append(message);
}

void UdpTrackerEndpoint::encode_announce_response_into(
    std::uint32_t transaction_id, const AnnounceReply& reply,
    std::string& out) {
  out.clear();
  put_u32(out, static_cast<std::uint32_t>(UdpAction::Announce));
  put_u32(out, transaction_id);
  put_u32(out, static_cast<std::uint32_t>(reply.interval));
  put_u32(out, reply.incomplete);
  put_u32(out, reply.complete);
  for (const Endpoint& p : reply.peers) {
    put_u32(out, p.ip.value());
    put_u16(out, p.port);
  }
}

bool UdpTrackerEndpoint::connection_valid(std::uint64_t id,
                                          const Endpoint& from,
                                          SimTime now) const {
  const auto it = connections_.find(id);
  return it != connections_.end() && now - it->second.issued <= kConnectionTtl &&
         it->second.ip == from.ip.value();
}

void UdpTrackerEndpoint::prune_expired(SimTime now) {
  std::erase_if(connections_, [&](const auto& entry) {
    return now - entry.second.issued > kConnectionTtl;
  });
}

void UdpTrackerEndpoint::handle_into(std::string_view datagram,
                                     const Endpoint& from, SimTime now,
                                     std::string& out) {
  // Connect?
  if (const auto connect = UdpConnectRequest::decode(datagram)) {
    // Amortized cleanup: every handshake sweeps out ids past their TTL, so
    // the table tracks the live client population instead of growing with
    // the total number of handshakes ever made.
    prune_expired(now);
    std::uint64_t id = rng_.next();
    while (connections_.contains(id)) id = rng_.next();
    connections_.emplace(id, Connection{now, from.ip.value()});
    ++stats_.connects;
    UdpConnectResponse res;
    res.transaction_id = connect->transaction_id;
    res.connection_id = id;
    res.encode_into(out);
    return;
  }
  // Announce?
  if (const auto announce = UdpAnnounceRequest::decode(datagram)) {
    ++stats_.announces;
    if (!connection_valid(announce->connection_id, from, now)) {
      ++stats_.bad_connection_id;
      ++stats_.announce_failures;
      error_into(announce->transaction_id, "invalid connection id", out);
      return;
    }
    AnnounceRequest request;
    request.infohash = announce->infohash;
    request.client.ip =
        announce->ip != 0 ? IpAddress(announce->ip) : from.ip;
    request.client.port = announce->port;
    request.numwant = announce->num_want == ~0u
                          ? tracker_->config().max_numwant
                          : announce->num_want;
    request.now = now;
    tracker_->announce_into(request, reply_, scratch_);
    if (!reply_.ok) {
      ++stats_.announce_failures;
      error_into(announce->transaction_id, reply_.failure_reason, out);
      return;
    }
    encode_announce_response_into(announce->transaction_id, reply_, out);
    return;
  }
  // Scrape?
  if (const auto scrape = UdpScrapeRequest::decode(datagram)) {
    ++stats_.scrapes;
    if (!connection_valid(scrape->connection_id, from, now)) {
      ++stats_.bad_connection_id;
      error_into(scrape->transaction_id, "invalid connection id", out);
      return;
    }
    out.clear();
    put_u32(out, static_cast<std::uint32_t>(UdpAction::Scrape));
    put_u32(out, scrape->transaction_id);
    for (const Sha1Digest& infohash : scrape->infohashes) {
      // Unhosted infohashes scrape as all-zero rows; the datagram must
      // keep one entry per request entry so positions line up.
      UdpScrapeEntry entry;
      if (const auto counts = tracker_->scrape_counts(infohash, now)) {
        entry.seeders = counts->complete;
        entry.completed = counts->downloaded;
        entry.leechers = counts->incomplete;
      }
      put_u32(out, entry.seeders);
      put_u32(out, entry.completed);
      put_u32(out, entry.leechers);
    }
    return;
  }
  // Anything else: protocol violation. BEP 15 says to ignore, but an error
  // datagram with transaction id 0 is friendlier to diagnose. (The wire
  // server additionally drops datagrams too short to carry a header — see
  // netio::UdpShard — so this reply is never an amplification vector.)
  ++stats_.malformed;
  error_into(0, "malformed datagram", out);
}

}  // namespace btpub
