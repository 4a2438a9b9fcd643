// announce_support.hpp — test-side forms of the tracker's HTTP announce.
// The product runs each step with caller-owned buffers: the HTTP listener
// (netio/http.cpp) parses the query string, calls Tracker::announce_into
// and encode_announce_reply_into. The tests compare those bytes against
// handle_get below (the same steps with fresh buffers), and read replies
// back through a decoder built on the value-tree oracle
// (tests/bencode_tree.hpp); no product code decodes an announce reply.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "bencode_tree.hpp"
#include "net/ip.hpp"
#include "tracker/announce.hpp"
#include "tracker/tracker.hpp"

namespace btpub {

/// Tracker::announce_into with a fresh reply and scratch.
inline AnnounceReply announce(Tracker& tracker, const AnnounceRequest& request) {
  AnnounceReply reply;
  Tracker::AnnounceScratch scratch;
  tracker.announce_into(request, reply, scratch);
  return reply;
}

/// encode_announce_reply_into a fresh buffer.
inline std::string encode_reply(const AnnounceReply& reply) {
  std::string out;
  encode_announce_reply_into(reply, out);
  return out;
}

/// The body the HTTP listener serves for the GET target `query_string`:
/// the announce's reply, or a "malformed request" failure when the query
/// does not parse.
inline std::string handle_get(Tracker& tracker, std::string_view query_string) {
  const auto request = parse_query_string(query_string);
  if (!request) {
    AnnounceReply malformed;
    malformed.failure_reason = "malformed request";
    return encode_reply(malformed);
  }
  return encode_reply(announce(tracker, *request));
}

/// Decodes a BEP 23 compact peer string; throws std::invalid_argument when
/// its length is not a multiple of 6.
inline std::vector<Endpoint> decode_compact_peers(std::string_view data) {
  if (data.size() % 6 != 0) {
    throw std::invalid_argument("compact peers: length not a multiple of 6");
  }
  std::vector<Endpoint> peers;
  for (std::size_t i = 0; i < data.size(); i += 6) {
    const auto b = [&](std::size_t k) {
      return static_cast<std::uint32_t>(static_cast<unsigned char>(data[i + k]));
    };
    peers.push_back(Endpoint{IpAddress((b(0) << 24) | (b(1) << 16) | (b(2) << 8) | b(3)),
                             static_cast<std::uint16_t>((b(4) << 8) | b(5))});
  }
  return peers;
}

/// Decodes a bencoded announce reply; throws bencode::Error on malformed
/// bytes and std::invalid_argument on a ragged compact peer string.
inline AnnounceReply decode_announce_reply(std::string_view bytes) {
  const bencode::Value root = bencode::decode(bytes);
  AnnounceReply reply;
  if (const auto failure = root.find_string("failure reason")) {
    reply.ok = false;
    reply.failure_reason = *failure;
    return reply;
  }
  reply.ok = true;
  reply.interval = root.find_integer("interval").value_or(0);
  reply.complete = static_cast<std::uint32_t>(root.find_integer("complete").value_or(0));
  reply.incomplete =
      static_cast<std::uint32_t>(root.find_integer("incomplete").value_or(0));
  if (const auto peers = root.find_string("peers")) {
    reply.peers = decode_compact_peers(*peers);
  }
  return reply;
}

}  // namespace btpub
