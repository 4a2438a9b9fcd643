// sha1.hpp — SHA-1 (RFC 3174). BitTorrent infohashes are the SHA-1 of the
// bencoded "info" dictionary; we implement the real digest so that torrents
// produced by the simulator are wire-accurate and infohash equality behaves
// exactly as in deployed BitTorrent.
//
// The compression function has two kernels: one on the x86 SHA extensions
// (SHA-NI) and a portable scalar one. Sha1 picks SHA-NI once, at its first
// use, when the CPU has it; both produce the same state for every input.
#pragma once

#include <array>
#include <compare>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>

namespace btpub {

/// 20-byte SHA-1 digest value type. Ordered & hashable so it can key maps
/// (the tracker's swarm registry keys on infohash).
struct Sha1Digest {
  std::array<std::uint8_t, 20> bytes{};

  auto operator<=>(const Sha1Digest&) const = default;

  /// Lowercase hex rendering ("da39a3ee...").
  std::string hex() const;

  /// Parses 40 hex chars; returns all-zero digest on malformed input.
  static Sha1Digest from_hex(std::string_view hex);
};

/// Streaming SHA-1 context.
class Sha1 {
 public:
  Sha1() noexcept;

  void update(std::span<const std::uint8_t> data) noexcept;
  void update(std::string_view data) noexcept;

  /// Finalises and returns the digest. The context must not be reused
  /// afterwards without reassignment.
  Sha1Digest finish() noexcept;

  /// One-shot convenience.
  static Sha1Digest hash(std::string_view data) noexcept;
  static Sha1Digest hash(std::span<const std::uint8_t> data) noexcept;

 private:
  std::array<std::uint32_t, 5> h_{};
  std::array<std::uint8_t, 64> buffer_{};
  std::uint64_t total_bytes_ = 0;
  std::size_t buffered_ = 0;
};

namespace detail {

/// A SHA-1 compression kernel: folds `n` whole 64-byte blocks at `blocks`
/// into `state` (FIPS 180-4 §6.1.2). Exposed for the kernel-agreement test
/// and the per-kernel micro benchmarks; everything else goes through Sha1.
using Sha1Kernel = void (*)(std::array<std::uint32_t, 5>& state,
                            const std::uint8_t* blocks, std::size_t n) noexcept;

/// Fully unrolled scalar kernel; the only one compiled on non-x86 targets.
void sha1_compress_portable(std::array<std::uint32_t, 5>& state,
                            const std::uint8_t* blocks, std::size_t n) noexcept;

/// The SHA-NI kernel, or nullptr when the target is not x86 or the CPU lacks
/// the SHA extensions (calling it there would fault).
Sha1Kernel sha1_shani_kernel() noexcept;

/// The kernel Sha1 runs: SHA-NI when present, else portable. Chosen on the
/// first call and fixed for the life of the process.
Sha1Kernel sha1_kernel() noexcept;

}  // namespace detail
}  // namespace btpub

template <>
struct std::hash<btpub::Sha1Digest> {
  std::size_t operator()(const btpub::Sha1Digest& d) const noexcept {
    // The digest is already uniformly distributed; fold the first 8 bytes.
    std::size_t out = 0;
    for (std::size_t i = 0; i < sizeof(std::size_t) && i < d.bytes.size(); ++i) {
      out = (out << 8) | d.bytes[i];
    }
    return out;
  }
};
