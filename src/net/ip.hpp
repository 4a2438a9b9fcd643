// ip.hpp — IPv4 value types. The study is IPv4-only (2008-2010 datasets);
// addresses, /16 prefixes (Table 3 counts distinct /16s per ISP) and CIDR
// blocks (the GeoIP database maps blocks to ISPs) are strong types rather
// than raw integers.
#pragma once

#include <compare>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace btpub {

/// An IPv4 address stored in host byte order.
class IpAddress {
 public:
  constexpr IpAddress() = default;
  constexpr explicit IpAddress(std::uint32_t value) : value_(value) {}
  constexpr IpAddress(std::uint8_t a, std::uint8_t b, std::uint8_t c, std::uint8_t d)
      : value_((std::uint32_t{a} << 24) | (std::uint32_t{b} << 16) |
               (std::uint32_t{c} << 8) | std::uint32_t{d}) {}

  constexpr std::uint32_t value() const noexcept { return value_; }

  /// "a.b.c.d" rendering.
  std::string to_string() const;

  /// Parses dotted-quad; nullopt on malformed input.
  static std::optional<IpAddress> parse(std::string_view text);

  auto operator<=>(const IpAddress&) const = default;

 private:
  std::uint32_t value_ = 0;
};

/// A /16 prefix, the granularity the paper uses to contrast hosting
/// providers (few prefixes) with residential ISPs (many prefixes).
class Prefix16 {
 public:
  constexpr Prefix16() = default;
  constexpr explicit Prefix16(IpAddress ip) : hi_(static_cast<std::uint16_t>(ip.value() >> 16)) {}

  constexpr std::uint16_t value() const noexcept { return hi_; }

  auto operator<=>(const Prefix16&) const = default;

 private:
  std::uint16_t hi_ = 0;
};

/// CIDR block [base, base + 2^(32-len)).
class CidrBlock {
 public:
  constexpr CidrBlock() = default;
  /// Requires len in [0, 32]; base is masked to the prefix.
  CidrBlock(IpAddress base, int len);

  constexpr IpAddress base() const noexcept { return base_; }
  constexpr int length() const noexcept { return len_; }

  /// Number of addresses in the block (2^(32-len)).
  std::uint64_t size() const noexcept;
  /// ip at `offset` within the block; offset must be < size().
  IpAddress at(std::uint64_t offset) const noexcept;

  auto operator<=>(const CidrBlock&) const = default;

 private:
  IpAddress base_;
  int len_ = 0;
};

/// ip:port endpoint, the identity a tracker stores per peer.
struct Endpoint {
  IpAddress ip;
  std::uint16_t port = 0;

  auto operator<=>(const Endpoint&) const = default;
};

}  // namespace btpub

template <>
struct std::hash<btpub::IpAddress> {
  std::size_t operator()(const btpub::IpAddress& ip) const noexcept {
    // Fibonacci hashing spreads sequential addresses (common in our
    // synthetic blocks) across buckets.
    return static_cast<std::size_t>(ip.value() * 0x9E3779B97F4A7C15ULL);
  }
};

template <>
struct std::hash<btpub::Endpoint> {
  std::size_t operator()(const btpub::Endpoint& e) const noexcept {
    const auto h = std::hash<btpub::IpAddress>{}(e.ip);
    return h ^ (static_cast<std::size_t>(e.port) << 1);
  }
};
