#include "tracker/udp.hpp"

#include <cstring>

namespace btpub {
namespace {

void put_u16(std::string& out, std::uint16_t v) {
  out.push_back(static_cast<char>(v >> 8));
  out.push_back(static_cast<char>(v & 0xff));
}

void put_u32(std::string& out, std::uint32_t v) {
  put_u16(out, static_cast<std::uint16_t>(v >> 16));
  put_u16(out, static_cast<std::uint16_t>(v & 0xffff));
}

void put_u64(std::string& out, std::uint64_t v) {
  put_u32(out, static_cast<std::uint32_t>(v >> 32));
  put_u32(out, static_cast<std::uint32_t>(v & 0xffffffff));
}

std::uint16_t get_u16(std::string_view d, std::size_t at) {
  return static_cast<std::uint16_t>(
      (static_cast<unsigned char>(d[at]) << 8) |
      static_cast<unsigned char>(d[at + 1]));
}

std::uint32_t get_u32(std::string_view d, std::size_t at) {
  return (static_cast<std::uint32_t>(get_u16(d, at)) << 16) | get_u16(d, at + 2);
}

std::uint64_t get_u64(std::string_view d, std::size_t at) {
  return (static_cast<std::uint64_t>(get_u32(d, at)) << 32) | get_u32(d, at + 4);
}

}  // namespace

// ---- connect --------------------------------------------------------------

void UdpConnectRequest::encode_into(std::string& out) const {
  out.clear();
  out.reserve(16);
  put_u64(out, kUdpProtocolMagic);
  put_u32(out, static_cast<std::uint32_t>(UdpAction::Connect));
  put_u32(out, transaction_id);
}

std::optional<UdpConnectRequest> UdpConnectRequest::decode(
    std::string_view datagram) {
  if (datagram.size() != 16) return std::nullopt;
  if (get_u64(datagram, 0) != kUdpProtocolMagic) return std::nullopt;
  if (get_u32(datagram, 8) != static_cast<std::uint32_t>(UdpAction::Connect)) {
    return std::nullopt;
  }
  UdpConnectRequest req;
  req.transaction_id = get_u32(datagram, 12);
  return req;
}

void UdpConnectResponse::encode_into(std::string& out) const {
  out.clear();
  out.reserve(16);
  put_u32(out, static_cast<std::uint32_t>(UdpAction::Connect));
  put_u32(out, transaction_id);
  put_u64(out, connection_id);
}

std::optional<UdpConnectResponse> UdpConnectResponse::decode(
    std::string_view datagram) {
  if (datagram.size() != 16) return std::nullopt;
  if (get_u32(datagram, 0) != static_cast<std::uint32_t>(UdpAction::Connect)) {
    return std::nullopt;
  }
  UdpConnectResponse res;
  res.transaction_id = get_u32(datagram, 4);
  res.connection_id = get_u64(datagram, 8);
  return res;
}

// ---- announce -------------------------------------------------------------

void UdpAnnounceRequest::encode_into(std::string& out) const {
  out.clear();
  out.reserve(98);
  put_u64(out, connection_id);
  put_u32(out, static_cast<std::uint32_t>(UdpAction::Announce));
  put_u32(out, transaction_id);
  out.append(reinterpret_cast<const char*>(infohash.bytes.data()), 20);
  out.append(reinterpret_cast<const char*>(peer_id.data()), 20);
  put_u64(out, downloaded);
  put_u64(out, left);
  put_u64(out, uploaded);
  put_u32(out, event);
  put_u32(out, ip);
  put_u32(out, key);
  put_u32(out, num_want);
  put_u16(out, port);
}

std::optional<UdpAnnounceRequest> UdpAnnounceRequest::decode(
    std::string_view datagram) {
  if (datagram.size() != 98) return std::nullopt;
  if (get_u32(datagram, 8) != static_cast<std::uint32_t>(UdpAction::Announce)) {
    return std::nullopt;
  }
  UdpAnnounceRequest req;
  req.connection_id = get_u64(datagram, 0);
  req.transaction_id = get_u32(datagram, 12);
  std::memcpy(req.infohash.bytes.data(), datagram.data() + 16, 20);
  std::memcpy(req.peer_id.data(), datagram.data() + 36, 20);
  req.downloaded = get_u64(datagram, 56);
  req.left = get_u64(datagram, 64);
  req.uploaded = get_u64(datagram, 72);
  req.event = get_u32(datagram, 80);
  req.ip = get_u32(datagram, 84);
  req.key = get_u32(datagram, 88);
  req.num_want = get_u32(datagram, 92);
  req.port = get_u16(datagram, 96);
  return req;
}

// ---- scrape ---------------------------------------------------------------

void UdpScrapeRequest::encode_into(std::string& out) const {
  out.clear();
  out.reserve(16 + infohashes.size() * 20);
  put_u64(out, connection_id);
  put_u32(out, static_cast<std::uint32_t>(UdpAction::Scrape));
  put_u32(out, transaction_id);
  for (const Sha1Digest& infohash : infohashes) {
    out.append(reinterpret_cast<const char*>(infohash.bytes.data()), 20);
  }
}

std::optional<UdpScrapeRequest> UdpScrapeRequest::decode(
    std::string_view datagram) {
  if (datagram.size() < 36 || (datagram.size() - 16) % 20 != 0) {
    return std::nullopt;
  }
  if (get_u32(datagram, 8) != static_cast<std::uint32_t>(UdpAction::Scrape)) {
    return std::nullopt;
  }
  const std::size_t n = (datagram.size() - 16) / 20;
  if (n > kMaxInfohashes) return std::nullopt;
  UdpScrapeRequest req;
  req.connection_id = get_u64(datagram, 0);
  req.transaction_id = get_u32(datagram, 12);
  req.infohashes.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    std::memcpy(req.infohashes[i].bytes.data(), datagram.data() + 16 + i * 20,
                20);
  }
  return req;
}

void UdpScrapeResponse::encode_into(std::string& out) const {
  out.clear();
  out.reserve(8 + entries.size() * 12);
  put_u32(out, static_cast<std::uint32_t>(UdpAction::Scrape));
  put_u32(out, transaction_id);
  for (const UdpScrapeEntry& entry : entries) {
    put_u32(out, entry.seeders);
    put_u32(out, entry.completed);
    put_u32(out, entry.leechers);
  }
}

// ---- error ----------------------------------------------------------------

void UdpErrorResponse::encode_into(std::string& out) const {
  out.clear();
  out.reserve(8 + message.size());
  put_u32(out, static_cast<std::uint32_t>(UdpAction::Error));
  put_u32(out, transaction_id);
  out += message;
}

std::optional<UdpErrorResponse> UdpErrorResponse::decode(
    std::string_view datagram) {
  if (datagram.size() < 8) return std::nullopt;
  if (get_u32(datagram, 0) != static_cast<std::uint32_t>(UdpAction::Error)) {
    return std::nullopt;
  }
  UdpErrorResponse res;
  res.transaction_id = get_u32(datagram, 4);
  res.message = std::string(datagram.substr(8));
  return res;
}

std::optional<UdpAction> udp_response_action(std::string_view datagram) {
  if (datagram.size() < 4) return std::nullopt;
  const std::uint32_t action = get_u32(datagram, 0);
  if (action > static_cast<std::uint32_t>(UdpAction::Error)) return std::nullopt;
  return static_cast<UdpAction>(action);
}

std::optional<std::uint32_t> udp_response_transaction_id(
    std::string_view datagram) {
  if (datagram.size() < 8) return std::nullopt;
  return get_u32(datagram, 4);
}

}  // namespace btpub
