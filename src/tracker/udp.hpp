// udp.hpp — the UDP tracker protocol (BEP 15).
//
// OpenBitTorrent — the tracker behind most of the paper's torrents — served
// announces over UDP as well as HTTP. The packet formats here are
// wire-exact (big-endian, the 0x41727101980 magic, the connect/announce/
// scrape/error actions); the simulated tracker answers datagrams through
// UdpTrackerEndpoint (udp_server.hpp), including the connection-id
// handshake and expiry. The announce response has no struct here: the
// endpoint encodes it straight from the tracker's reply
// (UdpTrackerEndpoint::encode_announce_response_into).
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "crypto/sha1.hpp"
#include "util/time.hpp"

namespace btpub {

inline constexpr std::uint64_t kUdpProtocolMagic = 0x41727101980ULL;

enum class UdpAction : std::uint32_t {
  Connect = 0,
  Announce = 1,
  Scrape = 2,
  Error = 3,
};

struct UdpConnectRequest {
  std::uint32_t transaction_id = 0;

  /// Clears `out` and writes the datagram into it; reusing one buffer
  /// across calls makes steady-state encoding allocation-free (the wire
  /// server and load generator both rely on this — see src/netio/).
  void encode_into(std::string& out) const;
  static std::optional<UdpConnectRequest> decode(std::string_view datagram);
};

struct UdpConnectResponse {
  std::uint32_t transaction_id = 0;
  std::uint64_t connection_id = 0;

  void encode_into(std::string& out) const;
  static std::optional<UdpConnectResponse> decode(std::string_view datagram);
};

struct UdpAnnounceRequest {
  std::uint64_t connection_id = 0;
  std::uint32_t transaction_id = 0;
  Sha1Digest infohash{};
  std::array<std::uint8_t, 20> peer_id{};
  std::uint64_t downloaded = 0;
  std::uint64_t left = 0;
  std::uint64_t uploaded = 0;
  std::uint32_t event = 0;  // 0 none, 1 completed, 2 started, 3 stopped
  std::uint32_t ip = 0;     // 0 = use sender address
  std::uint32_t key = 0;
  std::uint32_t num_want = ~0u;  // default: tracker decides
  std::uint16_t port = 0;

  void encode_into(std::string& out) const;
  static std::optional<UdpAnnounceRequest> decode(std::string_view datagram);
};

/// Scrape request: connection id, action=2, transaction id, then 1..74
/// infohashes of 20 bytes each (BEP 15's packet-size cap).
struct UdpScrapeRequest {
  std::uint64_t connection_id = 0;
  std::uint32_t transaction_id = 0;
  std::vector<Sha1Digest> infohashes;

  static constexpr std::size_t kMaxInfohashes = 74;

  void encode_into(std::string& out) const;
  static std::optional<UdpScrapeRequest> decode(std::string_view datagram);
};

/// Scrape response: one {seeders, completed, leechers} triple per
/// requested infohash, in request order.
struct UdpScrapeEntry {
  std::uint32_t seeders = 0;
  std::uint32_t completed = 0;
  std::uint32_t leechers = 0;

  bool operator==(const UdpScrapeEntry&) const = default;
};

struct UdpScrapeResponse {
  std::uint32_t transaction_id = 0;
  std::vector<UdpScrapeEntry> entries;

  void encode_into(std::string& out) const;
};

struct UdpErrorResponse {
  std::uint32_t transaction_id = 0;
  std::string message;

  void encode_into(std::string& out) const;
  static std::optional<UdpErrorResponse> decode(std::string_view datagram);
};

/// Peeks at the action field of a response datagram (offset 0).
std::optional<UdpAction> udp_response_action(std::string_view datagram);

/// Peeks at the transaction id of a response datagram (offset 4); response
/// datagrams of every action carry it there. nullopt when too short.
std::optional<std::uint32_t> udp_response_transaction_id(std::string_view datagram);

}  // namespace btpub
