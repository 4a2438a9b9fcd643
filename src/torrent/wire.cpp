#include "torrent/wire.hpp"

#include <cstring>

#include "util/rng.hpp"

namespace btpub {
namespace {

constexpr std::string_view kProtocol = "BitTorrent protocol";
/// The BEP 3 message id of a bitfield message.
constexpr unsigned char kBitfieldId = 5;

void append_u32(std::string& out, std::uint32_t v) {
  out.push_back(static_cast<char>((v >> 24) & 0xff));
  out.push_back(static_cast<char>((v >> 16) & 0xff));
  out.push_back(static_cast<char>((v >> 8) & 0xff));
  out.push_back(static_cast<char>(v & 0xff));
}

std::uint32_t read_u32(std::string_view bytes, std::size_t pos) {
  const auto b = [&](std::size_t k) {
    return static_cast<std::uint32_t>(static_cast<unsigned char>(bytes[pos + k]));
  };
  return (b(0) << 24) | (b(1) << 16) | (b(2) << 8) | b(3);
}

}  // namespace

std::string Handshake::encode() const {
  std::string out;
  out.reserve(68);
  out.push_back(static_cast<char>(kProtocol.size()));
  out.append(kProtocol);
  out.append(8, '\0');  // reserved bits
  out.append(reinterpret_cast<const char*>(infohash.bytes.data()),
             infohash.bytes.size());
  out.append(reinterpret_cast<const char*>(peer_id.data()), peer_id.size());
  return out;
}

std::optional<Handshake> Handshake::decode(std::string_view bytes) {
  if (bytes.size() != 68) return std::nullopt;
  if (static_cast<unsigned char>(bytes[0]) != kProtocol.size()) return std::nullopt;
  if (bytes.substr(1, kProtocol.size()) != kProtocol) return std::nullopt;
  Handshake h;
  std::memcpy(h.infohash.bytes.data(), bytes.data() + 28, 20);
  std::memcpy(h.peer_id.data(), bytes.data() + 48, 20);
  return h;
}

std::array<std::uint8_t, 20> Handshake::make_peer_id(std::uint64_t seed) {
  std::array<std::uint8_t, 20> id{};
  constexpr std::string_view prefix = "-BP1000-";
  std::memcpy(id.data(), prefix.data(), prefix.size());
  // Fill the remaining 12 bytes from a SplitMix-style expansion of the seed.
  std::uint64_t x = seed;
  for (std::size_t i = prefix.size(); i < id.size(); ++i) {
    id[i] = static_cast<std::uint8_t>(splitmix64(x) & 0xff);
  }
  return id;
}

std::string encode_bitfield_message(const Bitfield& field) {
  const std::string body = field.to_bytes();
  std::string out;
  append_u32(out, static_cast<std::uint32_t>(1 + body.size()));
  out.push_back(static_cast<char>(kBitfieldId));
  out += body;
  return out;
}

std::optional<std::string_view> decode_bitfield_message(std::string_view bytes) {
  if (bytes.size() < 5) return std::nullopt;
  if (read_u32(bytes, 0) != bytes.size() - 4) return std::nullopt;
  if (static_cast<unsigned char>(bytes[4]) != kBitfieldId) return std::nullopt;
  return bytes.substr(5);
}

}  // namespace btpub
