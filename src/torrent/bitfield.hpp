// bitfield.hpp — BitTorrent piece bitfield (BEP 3 "bitfield" message body).
// The crawler identifies the initial seeder by asking each reachable peer
// for its bitfield and checking which one is complete.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace btpub {

/// Fixed-size bit vector over piece indices. Bit 0 is the most significant
/// bit of byte 0, per the BitTorrent wire format.
class Bitfield {
 public:
  Bitfield() = default;
  explicit Bitfield(std::size_t n_pieces);

  std::size_t size() const noexcept { return n_pieces_; }
  void set(std::size_t piece, bool value = true);

  /// Number of set bits.
  std::size_t count() const noexcept;
  /// True when every piece bit is set.
  bool complete() const noexcept;

  /// Sets the first k pieces (linear download-progress model).
  void set_prefix(std::size_t k);

  /// Wire serialisation: ceil(n/8) bytes, spare bits zero.
  std::string to_bytes() const;
  /// Parses a wire bitfield for a known piece count. Throws
  /// std::invalid_argument on length mismatch or nonzero spare bits.
  static Bitfield from_bytes(std::string_view bytes, std::size_t n_pieces);

  friend bool operator==(const Bitfield&, const Bitfield&) = default;

 private:
  std::size_t n_pieces_ = 0;
  std::vector<std::uint8_t> bytes_;
};

}  // namespace btpub
