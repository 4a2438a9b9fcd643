// udp_support.hpp — test-side decoders for the two BEP 15 response
// datagrams only the daemon sends. The load generator reads an announce or
// scrape reply no further than its action and transaction id, so reading
// the rest of the endpoint's bytes (its encode_announce_response_into and
// scrape rows) is the tests' job. Fresh-buffer encode/handle come from
// wire_support.hpp.
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

#include "net/ip.hpp"
#include "tracker/udp.hpp"
#include "wire_support.hpp"

namespace btpub {

inline std::uint32_t udp_be32(std::string_view d, std::size_t at) {
  std::uint32_t v = 0;
  for (std::size_t i = 0; i < 4; ++i) {
    v = (v << 8) | static_cast<unsigned char>(d[at + i]);
  }
  return v;
}

/// An announce response: action 1, transaction id, interval, leechers,
/// seeders, then 6 bytes per peer.
struct UdpAnnounceResponse {
  std::uint32_t transaction_id = 0;
  std::uint32_t interval = 0;
  std::uint32_t leechers = 0;
  std::uint32_t seeders = 0;
  std::vector<Endpoint> peers;

  static std::optional<UdpAnnounceResponse> decode(std::string_view datagram) {
    if (datagram.size() < 20 || (datagram.size() - 20) % 6 != 0) {
      return std::nullopt;
    }
    if (udp_be32(datagram, 0) != static_cast<std::uint32_t>(UdpAction::Announce)) {
      return std::nullopt;
    }
    UdpAnnounceResponse res;
    res.transaction_id = udp_be32(datagram, 4);
    res.interval = udp_be32(datagram, 8);
    res.leechers = udp_be32(datagram, 12);
    res.seeders = udp_be32(datagram, 16);
    for (std::size_t at = 20; at < datagram.size(); at += 6) {
      res.peers.push_back(Endpoint{
          IpAddress(udp_be32(datagram, at)),
          static_cast<std::uint16_t>(udp_be32(datagram, at + 2) & 0xffff)});
    }
    return res;
  }
};

/// A scrape response: action 2, transaction id, then one
/// {seeders, completed, leechers} row per requested infohash.
inline std::optional<UdpScrapeResponse> decode_scrape_response(
    std::string_view datagram) {
  if (datagram.size() < 8 || (datagram.size() - 8) % 12 != 0) {
    return std::nullopt;
  }
  if (udp_be32(datagram, 0) != static_cast<std::uint32_t>(UdpAction::Scrape)) {
    return std::nullopt;
  }
  UdpScrapeResponse res;
  res.transaction_id = udp_be32(datagram, 4);
  for (std::size_t at = 8; at < datagram.size(); at += 12) {
    res.entries.push_back(UdpScrapeEntry{udp_be32(datagram, at),
                                         udp_be32(datagram, at + 4),
                                         udp_be32(datagram, at + 8)});
  }
  return res;
}

}  // namespace btpub
