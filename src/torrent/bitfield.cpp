#include "torrent/bitfield.hpp"

#include <bit>
#include <stdexcept>

namespace btpub {

Bitfield::Bitfield(std::size_t n_pieces)
    : n_pieces_(n_pieces), bytes_((n_pieces + 7) / 8, 0) {}

void Bitfield::set(std::size_t piece, bool value) {
  if (piece >= n_pieces_) throw std::out_of_range("Bitfield::set");
  const std::uint8_t mask = static_cast<std::uint8_t>(1u << (7 - piece % 8));
  if (value) {
    bytes_[piece / 8] |= mask;
  } else {
    bytes_[piece / 8] &= static_cast<std::uint8_t>(~mask);
  }
}

std::size_t Bitfield::count() const noexcept {
  std::size_t total = 0;
  for (std::uint8_t b : bytes_) total += static_cast<std::size_t>(std::popcount(b));
  return total;
}

bool Bitfield::complete() const noexcept {
  return n_pieces_ > 0 && count() == n_pieces_;
}

void Bitfield::set_prefix(std::size_t k) {
  if (k > n_pieces_) k = n_pieces_;
  for (std::size_t i = 0; i < k; ++i) set(i, true);
}

std::string Bitfield::to_bytes() const {
  return std::string(bytes_.begin(), bytes_.end());
}

Bitfield Bitfield::from_bytes(std::string_view bytes, std::size_t n_pieces) {
  const std::size_t expected = (n_pieces + 7) / 8;
  if (bytes.size() != expected) {
    throw std::invalid_argument("Bitfield: wrong byte length");
  }
  Bitfield field(n_pieces);
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    field.bytes_[i] = static_cast<std::uint8_t>(bytes[i]);
  }
  // Spare bits beyond the last piece must be zero (protocol requirement).
  const std::size_t spare = expected * 8 - n_pieces;
  if (spare > 0 && expected > 0) {
    const std::uint8_t spare_mask =
        static_cast<std::uint8_t>((1u << spare) - 1);
    if ((field.bytes_.back() & spare_mask) != 0) {
      throw std::invalid_argument("Bitfield: nonzero spare bits");
    }
  }
  return field;
}

}  // namespace btpub
