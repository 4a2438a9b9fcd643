// wire.hpp — the slice of the BitTorrent peer wire protocol (BEP 3) the
// measurement apparatus needs: the handshake and the bitfield message.
// The paper's crawler connects to each reachable peer of a young swarm and
// reads its bitfield to find the (complete) initial seeder; we encode and
// decode the same bytes.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "crypto/sha1.hpp"
#include "torrent/bitfield.hpp"

namespace btpub {

/// The fixed 68-byte BitTorrent handshake.
struct Handshake {
  Sha1Digest infohash{};
  std::array<std::uint8_t, 20> peer_id{};

  std::string encode() const;
  /// nullopt when the bytes are not a well-formed v1 handshake.
  static std::optional<Handshake> decode(std::string_view bytes);

  /// Conventional client-style peer id, e.g. "-BP1000-" + 12 seeded bytes.
  static std::array<std::uint8_t, 20> make_peer_id(std::uint64_t seed);
};

/// Encodes a bitfield message: <len><id=5><bitfield bytes>.
std::string encode_bitfield_message(const Bitfield& field);

/// Decodes `bytes` as exactly one bitfield message and returns its body
/// (the raw bitfield bytes). nullopt when the buffer is truncated, its
/// length field does not cover exactly the rest of it, or the message is
/// not a bitfield; never throws.
std::optional<std::string_view> decode_bitfield_message(std::string_view bytes);

}  // namespace btpub
