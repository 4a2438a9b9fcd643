// node_id.hpp — 160-bit Kademlia node identifiers (BEP 5).
//
// Mainline DHT nodes live in the same SHA-1 space as infohashes; closeness
// between a node and a torrent is the XOR metric interpreted as a
// big-endian 160-bit integer. Keeping NodeId layout-compatible with
// Sha1Digest lets the overlay reuse the existing digest plumbing (hashing,
// infohash targets) without conversions.
#pragma once

#include <array>
#include <bit>
#include <compare>
#include <cstdint>
#include <cstring>

#include "crypto/sha1.hpp"
#include "net/ip.hpp"

namespace btpub::dht {

/// A 160-bit identifier in the infohash space.
struct NodeId {
  std::array<std::uint8_t, 20> bytes{};

  auto operator<=>(const NodeId&) const = default;

  /// The infohash-as-target view: lookups for a torrent aim at the
  /// infohash bytes directly.
  static NodeId from_digest(const Sha1Digest& digest) noexcept {
    return NodeId{digest.bytes};
  }
  Sha1Digest to_digest() const noexcept { return Sha1Digest{bytes}; }

  /// Deterministic per-endpoint identity: real clients pick a random id
  /// once and keep it; we derive it from (seed, ip, port) so the same
  /// scenario always grows the same overlay.
  static NodeId for_endpoint(std::uint64_t seed, const Endpoint& endpoint);
};

/// (id, endpoint) pair, as carried in "nodes" compact node info.
struct NodeInfo {
  NodeId id{};
  Endpoint endpoint{};

  friend bool operator==(const NodeInfo&, const NodeInfo&) = default;
};

/// An XOR distance as three big-endian words (bytes 0-7, 8-15, 16-19):
/// tuple order on them is the magnitude order.
struct DistanceKey {
  std::uint64_t hi = 0;
  std::uint64_t mid = 0;
  std::uint32_t lo = 0;

  friend bool operator<(const DistanceKey& a, const DistanceKey& b) noexcept {
    if (a.hi != b.hi) return a.hi < b.hi;
    if (a.mid != b.mid) return a.mid < b.mid;
    return a.lo < b.lo;
  }
};

namespace detail {

inline std::uint64_t load_be64(const std::uint8_t* p) noexcept {
  std::uint64_t v;
  std::memcpy(&v, p, sizeof v);
  if constexpr (std::endian::native == std::endian::little) {
    v = __builtin_bswap64(v);
  }
  return v;
}

inline std::uint32_t load_be32(const std::uint8_t* p) noexcept {
  std::uint32_t v;
  std::memcpy(&v, p, sizeof v);
  if constexpr (std::endian::native == std::endian::little) {
    v = __builtin_bswap32(v);
  }
  return v;
}

}  // namespace detail

/// The XOR distance of `id` from `target`, as words.
inline DistanceKey distance_key(const NodeId& id, const NodeId& target) noexcept {
  const std::uint8_t* a = id.bytes.data();
  const std::uint8_t* t = target.bytes.data();
  return DistanceKey{detail::load_be64(a) ^ detail::load_be64(t),
                     detail::load_be64(a + 8) ^ detail::load_be64(t + 8),
                     detail::load_be32(a + 16) ^ detail::load_be32(t + 16)};
}

/// True when |a - target| < |b - target| under the XOR metric. Called
/// per candidate on every lookup, so it compares words, not bytes.
inline bool closer(const NodeId& a, const NodeId& b,
                   const NodeId& target) noexcept {
  return distance_key(a, target) < distance_key(b, target);
}

/// Index of the highest set bit of `d` (159 for the farthest half of the
/// space, 0 for adjacent ids); -1 when d is zero. This is the k-bucket
/// index of a node at distance `d`.
inline int distance_bit(const DistanceKey& d) noexcept {
  if (d.hi != 0) return 159 - std::countl_zero(d.hi);
  if (d.mid != 0) return 95 - std::countl_zero(d.mid);
  if (d.lo != 0) return 31 - std::countl_zero(d.lo);
  return -1;
}
inline int distance_bit(const NodeId& d) noexcept {
  return distance_bit(distance_key(d, NodeId{}));
}

}  // namespace btpub::dht

template <>
struct std::hash<btpub::dht::NodeId> {
  std::size_t operator()(const btpub::dht::NodeId& id) const noexcept {
    std::size_t out = 0;
    for (std::size_t i = 0; i < sizeof(std::size_t); ++i) {
      out = (out << 8) | id.bytes[i];
    }
    return out;
  }
};
