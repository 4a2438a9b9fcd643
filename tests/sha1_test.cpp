// SHA-1 against the RFC 3174 / FIPS 180 test vectors and padding-boundary
// known answers, agreement between the SHA-NI and portable kernels, plus
// streaming and digest value-type behaviour.
#include "crypto/sha1.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "util/rng.hpp"

namespace btpub {
namespace {

TEST(Sha1, EmptyString) {
  EXPECT_EQ(Sha1::hash("").hex(), "da39a3ee5e6b4b0d3255bfef95601890afd80709");
}

TEST(Sha1, Abc) {
  EXPECT_EQ(Sha1::hash("abc").hex(), "a9993e364706816aba3e25717850c26c9cd0d89d");
}

TEST(Sha1, TwoBlockMessage) {
  EXPECT_EQ(Sha1::hash("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq").hex(),
            "84983e441c3bd26ebaae4aa1f95129e5e54670f1");
}

TEST(Sha1, MillionAs) {
  Sha1 ctx;
  const std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) ctx.update(chunk);
  EXPECT_EQ(ctx.finish().hex(), "34aa973cd4c4daa4f61eeb2bdbad27316534016f");
}

TEST(Sha1, ExactBlockBoundary) {
  // 64-byte message exercises the padding-into-second-block path.
  const std::string msg(64, 'x');
  Sha1 ctx;
  ctx.update(msg);
  EXPECT_EQ(ctx.finish(), Sha1::hash(msg));
}

TEST(Sha1, PaddingBoundaryKnownAnswers) {
  // 'q' x n around the padding boundaries: at 55 bytes the length fits after
  // 0x80 in the same block, at 56 it does not; 64/65 and 119/120 repeat
  // that one block later. Digests from Python's hashlib.
  const std::pair<std::size_t, const char*> cases[] = {
      {55, "7b271259bf2d2d3311f75d398745f5309ff76e09"},
      {56, "cc30d5bc02bd26f3da6c5801880078dad9a63032"},
      {63, "0807f7f930492f9e95070290aeac189e3721bf07"},
      {64, "ce2798652a5cbba06c6f736ddeca9724e479e5b7"},
      {65, "b0931a65ae5cf3e027199de5f7c56eb0f073c552"},
      {119, "c69516277e59324c6533caed0d3f7974cbc86061"},
      {120, "b265d110f022092352c9471f056c857b31ad79d8"},
      {128, "4e62cf8bbce5071fabccabebdee5ede47a596d2d"},
  };
  for (const auto& [n, hex] : cases) {
    EXPECT_EQ(Sha1::hash(std::string(n, 'q')).hex(), hex) << n << " bytes";
  }
}

constexpr std::array<std::uint32_t, 5> kInitialState = {
    0x67452301u, 0xEFCDAB89u, 0x98BADCFEu, 0x10325476u, 0xC3D2E1F0u};

// Runs `kernel` over `message` the way Sha1 does: whole blocks of each
// update chunk straight from the input, a partial block via a buffer, then
// the padded tail. Returns the final state.
std::array<std::uint32_t, 5> run_kernel(detail::Sha1Kernel kernel,
                                        const std::vector<std::uint8_t>& message,
                                        Rng& chunks) {
  std::array<std::uint32_t, 5> state = kInitialState;
  std::vector<std::uint8_t> pending;
  std::size_t pos = 0;
  while (pos < message.size()) {
    const auto take = std::min<std::size_t>(
        message.size() - pos, static_cast<std::size_t>(chunks.uniform_int(1, 300)));
    pending.insert(pending.end(), message.begin() + static_cast<std::ptrdiff_t>(pos),
                   message.begin() + static_cast<std::ptrdiff_t>(pos + take));
    pos += take;
    const std::size_t blocks = pending.size() / 64;
    if (blocks > 0) kernel(state, pending.data(), blocks);
    pending.erase(pending.begin(),
                  pending.begin() + static_cast<std::ptrdiff_t>(blocks * 64));
  }
  const std::uint64_t bits = message.size() * 8;
  pending.push_back(0x80);
  while (pending.size() % 64 != 56) pending.push_back(0);
  for (int i = 7; i >= 0; --i) pending.push_back(static_cast<std::uint8_t>(bits >> (8 * i)));
  kernel(state, pending.data(), pending.size() / 64);
  return state;
}

TEST(Sha1Kernel, ShaniMatchesPortable) {
  const detail::Sha1Kernel shani = detail::sha1_shani_kernel();
  if (shani == nullptr) GTEST_SKIP() << "no SHA extensions on this target or CPU";
  Rng rng(1907);
  std::vector<std::uint8_t> message;
  for (std::size_t length = 0; length <= 4096;
       length += static_cast<std::size_t>(rng.uniform_int(1, 23))) {
    message.resize(length);
    for (auto& byte : message) byte = static_cast<std::uint8_t>(rng.next());
    // The same chunking for both kernels.
    const std::uint64_t chunk_seed = rng.next();
    Rng portable_chunks(chunk_seed);
    Rng shani_chunks(chunk_seed);
    const auto expected =
        run_kernel(&detail::sha1_compress_portable, message, portable_chunks);
    EXPECT_EQ(run_kernel(shani, message, shani_chunks), expected) << length << " bytes";
  }
}

TEST(Sha1Kernel, DispatchedKernelIsOneOfTheTwo) {
  const detail::Sha1Kernel chosen = detail::sha1_kernel();
  const detail::Sha1Kernel shani = detail::sha1_shani_kernel();
  EXPECT_EQ(chosen, shani != nullptr ? shani : &detail::sha1_compress_portable);
  EXPECT_EQ(detail::sha1_kernel(), chosen);  // fixed after the first call
}

TEST(Sha1Kernel, PortableMatchesKnownAnswer) {
  // The portable kernel alone, so a SHA-NI machine still checks it end to
  // end: "abc" is one padded block.
  std::uint8_t block[64] = {'a', 'b', 'c', 0x80};
  block[63] = 24;  // bit length
  std::array<std::uint32_t, 5> state = kInitialState;
  detail::sha1_compress_portable(state, block, 1);
  const std::array<std::uint32_t, 5> expected = {0xa9993e36u, 0x4706816au, 0xba3e2571u,
                                                 0x7850c26cu, 0x9cd0d89du};
  EXPECT_EQ(state, expected);
}

class Sha1Chunking : public ::testing::TestWithParam<std::size_t> {};

TEST_P(Sha1Chunking, StreamingMatchesOneShot) {
  std::string message;
  for (int i = 0; i < 997; ++i) message.push_back(static_cast<char>(i * 31 + 7));
  const Sha1Digest expected = Sha1::hash(message);
  Sha1 ctx;
  const std::size_t chunk = GetParam();
  for (std::size_t pos = 0; pos < message.size(); pos += chunk) {
    ctx.update(std::string_view(message).substr(pos, chunk));
  }
  EXPECT_EQ(ctx.finish(), expected);
}

INSTANTIATE_TEST_SUITE_P(ChunkSizes, Sha1Chunking,
                         ::testing::Values(1u, 3u, 19u, 64u, 65u, 128u, 997u));

TEST(Sha1Digest, HexRoundTrip) {
  const Sha1Digest d = Sha1::hash("round trip");
  EXPECT_EQ(Sha1Digest::from_hex(d.hex()), d);
}

TEST(Sha1Digest, FromHexRejectsMalformed) {
  EXPECT_EQ(Sha1Digest::from_hex("zz"), Sha1Digest{});
  EXPECT_EQ(Sha1Digest::from_hex(std::string(40, 'g')), Sha1Digest{});
  // Right length, bad chars -> all-zero digest.
  std::string bad(40, '0');
  bad[7] = '!';
  EXPECT_EQ(Sha1Digest::from_hex(bad), Sha1Digest{});
}

TEST(Sha1Digest, Hashable) {
  std::unordered_set<Sha1Digest> set;
  for (int i = 0; i < 100; ++i) set.insert(Sha1::hash(std::to_string(i)));
  EXPECT_EQ(set.size(), 100u);
}

TEST(Sha1Digest, DistinctInputsDistinctDigests) {
  EXPECT_NE(Sha1::hash("a"), Sha1::hash("b"));
  EXPECT_NE(Sha1::hash("abc"), Sha1::hash("abc "));
}

TEST(Sha1, BinaryInputWithNulBytes) {
  std::string msg = "ab";
  msg.push_back('\0');
  msg += "cd";
  EXPECT_EQ(Sha1::hash(msg).hex().size(), 40u);
  EXPECT_NE(Sha1::hash(msg), Sha1::hash("abcd"));
}

}  // namespace
}  // namespace btpub
