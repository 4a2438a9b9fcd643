// Piece bitfields and the peer-wire handshake / bitfield message, plus a
// seeded mutation loop over both (probe bytes come from peers).
#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <string>

#include "torrent/bitfield.hpp"
#include "torrent/wire.hpp"
#include "util/rng.hpp"

namespace btpub {
namespace {

TEST(BitfieldTest, SetGetCount) {
  Bitfield f(10);
  EXPECT_EQ(f.size(), 10u);
  EXPECT_EQ(f.count(), 0u);
  f.set(0);
  f.set(9);
  // Bits 0 and 9 and nothing else: MSB of byte 0, second bit of byte 1.
  EXPECT_EQ(f.to_bytes(), std::string("\x80\x40", 2));
  EXPECT_EQ(f.count(), 2u);
  f.set(9, false);
  EXPECT_EQ(f.count(), 1u);
}

TEST(BitfieldTest, OutOfRangeThrows) {
  Bitfield f(8);
  EXPECT_THROW(f.set(8), std::out_of_range);
}

TEST(BitfieldTest, CompleteAndCount) {
  Bitfield f(3);
  EXPECT_FALSE(f.complete());
  f.set_prefix(3);
  EXPECT_TRUE(f.complete());
  EXPECT_EQ(f.count(), 3u);
  Bitfield half(4);
  half.set_prefix(2);
  EXPECT_EQ(half.count(), 2u);
  EXPECT_FALSE(half.complete());
  EXPECT_FALSE(Bitfield().complete());  // empty field is never complete
}

TEST(BitfieldTest, SetPrefixClamps) {
  Bitfield f(5);
  f.set_prefix(100);
  EXPECT_TRUE(f.complete());
}

TEST(BitfieldTest, WireLayoutMsbFirst) {
  Bitfield f(9);
  f.set(0);
  const std::string bytes = f.to_bytes();
  ASSERT_EQ(bytes.size(), 2u);
  EXPECT_EQ(static_cast<unsigned char>(bytes[0]), 0x80);
  EXPECT_EQ(static_cast<unsigned char>(bytes[1]), 0x00);
  f.set(8);
  EXPECT_EQ(static_cast<unsigned char>(f.to_bytes()[1]), 0x80);
}

class BitfieldRoundTrip : public ::testing::TestWithParam<std::size_t> {};

TEST_P(BitfieldRoundTrip, BytesRoundTrip) {
  const std::size_t n = GetParam();
  Bitfield f(n);
  for (std::size_t i = 0; i < n; i += 3) f.set(i);
  const Bitfield parsed = Bitfield::from_bytes(f.to_bytes(), n);
  EXPECT_EQ(parsed, f);
  EXPECT_EQ(parsed.count(), f.count());
}

INSTANTIATE_TEST_SUITE_P(Sizes, BitfieldRoundTrip,
                         ::testing::Values(1u, 7u, 8u, 9u, 63u, 64u, 65u, 1000u));

TEST(BitfieldTest, FromBytesRejectsWrongLength) {
  EXPECT_THROW(Bitfield::from_bytes("ab", 8), std::invalid_argument);
  EXPECT_THROW(Bitfield::from_bytes("", 1), std::invalid_argument);
}

TEST(BitfieldTest, FromBytesRejectsNonzeroSpareBits) {
  std::string bytes(1, static_cast<char>(0xFF));  // all 8 bits set
  EXPECT_THROW(Bitfield::from_bytes(bytes, 5), std::invalid_argument);
  // 5-piece field with only valid bits set parses fine.
  std::string ok(1, static_cast<char>(0xF8));
  EXPECT_TRUE(Bitfield::from_bytes(ok, 5).complete());
}

TEST(HandshakeTest, EncodeDecodeRoundTrip) {
  Handshake hs;
  hs.infohash = Sha1::hash("some torrent");
  hs.peer_id = Handshake::make_peer_id(42);
  const std::string wire = hs.encode();
  ASSERT_EQ(wire.size(), 68u);
  const auto decoded = Handshake::decode(wire);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->infohash, hs.infohash);
  EXPECT_EQ(decoded->peer_id, hs.peer_id);
}

TEST(HandshakeTest, RejectsMalformed) {
  EXPECT_FALSE(Handshake::decode("short").has_value());
  std::string wire = Handshake{}.encode();
  wire[0] = 5;  // wrong pstr length
  EXPECT_FALSE(Handshake::decode(wire).has_value());
  std::string wire2 = Handshake{}.encode();
  wire2[1] = 'X';  // corrupted protocol string
  EXPECT_FALSE(Handshake::decode(wire2).has_value());
}

TEST(HandshakeTest, PeerIdConventionalPrefix) {
  const auto id = Handshake::make_peer_id(7);
  EXPECT_EQ(std::string(id.begin(), id.begin() + 8), "-BP1000-");
  EXPECT_NE(Handshake::make_peer_id(7), Handshake::make_peer_id(8));
  EXPECT_EQ(Handshake::make_peer_id(7), Handshake::make_peer_id(7));
}

TEST(WireMessages, BitfieldMessageRoundTrip) {
  Bitfield f(12);
  f.set_prefix(12);
  const std::string msg = encode_bitfield_message(f);
  ASSERT_EQ(msg.size(), 4u + 1u + 2u);  // <len=3><id=5><2 bitfield bytes>
  EXPECT_EQ(static_cast<unsigned char>(msg[3]), 3);
  EXPECT_EQ(static_cast<unsigned char>(msg[4]), 5);
  const auto body = decode_bitfield_message(msg);
  ASSERT_TRUE(body.has_value());
  EXPECT_EQ(*body, f.to_bytes());
  EXPECT_TRUE(Bitfield::from_bytes(*body, 12).complete());
}

TEST(WireMessages, EmptyBitfieldMessageDecodes) {
  const auto body = decode_bitfield_message(encode_bitfield_message(Bitfield()));
  ASSERT_TRUE(body.has_value());
  EXPECT_TRUE(body->empty());
}

TEST(WireMessages, TruncatedBufferReturnsNullopt) {
  Bitfield f(20);
  f.set(3);
  const std::string msg = encode_bitfield_message(f);
  for (std::size_t cut = 0; cut < msg.size(); ++cut) {
    EXPECT_FALSE(decode_bitfield_message(msg.substr(0, cut)).has_value()) << cut;
  }
}

TEST(WireMessages, BadLengthReturnsNullopt) {
  Bitfield f(16);
  std::string longer = encode_bitfield_message(f);
  longer[3] = static_cast<char>(longer[3] + 1);  // claims one byte too many
  EXPECT_FALSE(decode_bitfield_message(longer).has_value());
  std::string shorter = encode_bitfield_message(f);
  shorter[3] = static_cast<char>(shorter[3] - 1);  // trailing byte uncovered
  EXPECT_FALSE(decode_bitfield_message(shorter).has_value());
  const std::string keepalive(4, '\0');  // zero-length: no id at all
  EXPECT_FALSE(decode_bitfield_message(keepalive).has_value());
}

TEST(WireMessages, OtherMessageIdsReturnNullopt) {
  // Every id but 5 is rejected, including ids no BEP 3 message uses.
  for (int id = 0; id < 256; ++id) {
    if (id == 5) continue;
    std::string msg = encode_bitfield_message(Bitfield(8));
    msg[4] = static_cast<char>(id);
    EXPECT_FALSE(decode_bitfield_message(msg).has_value()) << id;
  }
}

/// What a crawler makes of one probe's bytes: whether the peer passes as
/// the complete seeder of a `pieces`-piece torrent with `infohash`. The
/// same steps as Crawler::first_contact; nothing may throw but the
/// bitfield parse, which the crawler catches.
bool looks_like_seeder(std::string_view handshake, std::string_view bitfield,
                       const Sha1Digest& infohash, std::size_t pieces) {
  const auto hs = Handshake::decode(handshake);
  if (!hs || hs->infohash != infohash) return false;
  const auto body = decode_bitfield_message(bitfield);
  if (!body) return false;
  try {
    return Bitfield::from_bytes(*body, pieces).complete();
  } catch (const std::invalid_argument&) {
    return false;
  }
}

/// One seeded mutation of `bytes`: a bit flip, a truncation, a splice of
/// `other`'s bytes, or an inflated 4-byte length field.
std::string mutate(const std::string& bytes, const std::string& other,
                   Rng& rng) {
  std::string out = bytes;
  switch (rng.uniform_int(0, 3)) {
    case 0:  // flip 1-4 bits
      for (int k = rng.uniform_int(1, 4); k > 0 && !out.empty(); --k) {
        out[rng.index(out.size())] ^= static_cast<char>(1u << rng.uniform_int(0, 7));
      }
      break;
    case 1:  // truncate
      out.resize(rng.index(out.size() + 1));
      break;
    case 2: {  // splice a slice of the other buffer over a slice of this one
      const std::size_t at = rng.index(out.size() + 1);
      const std::size_t from = rng.index(other.size() + 1);
      const std::size_t len = rng.index(other.size() - from + 1);
      out = out.substr(0, at) + other.substr(from, len) +
            out.substr(std::min(out.size(), at + len));
      break;
    }
    default: {  // inflate the length field (the first four bytes)
      if (out.size() < 4) break;
      const std::uint32_t inflated =
          rng.chance(0.5) ? 0xffffffffu
                          : static_cast<std::uint32_t>(out.size() +
                                                       rng.uniform_int(0, 1000));
      for (int k = 0; k < 4; ++k) {
        out[k] = static_cast<char>((inflated >> (24 - 8 * k)) & 0xff);
      }
      break;
    }
  }
  return out;
}

TEST(WireMutation, SeededMutationsNeverThrow) {
  // Probe bytes come from peers: no mutation of a handshake or a bitfield
  // message may make the decode throw, and a mutant that still decodes
  // never yields more than the torrent's pieces.
  Rng rng(0x5eedb17f);
  std::size_t decoded = 0;
  std::size_t seeders = 0;
  for (int round = 0; round < 4000; ++round) {
    const std::size_t pieces = rng.index(70);  // 0..69, spare bits included
    Bitfield field(pieces);
    field.set_prefix(rng.chance(0.5) ? pieces : rng.index(pieces + 1));
    Handshake hs;
    hs.infohash = Sha1::hash(std::to_string(round));
    hs.peer_id = Handshake::make_peer_id(static_cast<std::uint64_t>(round));
    const std::string handshake = hs.encode();
    const std::string message = encode_bitfield_message(field);

    const std::string bad_hs = mutate(handshake, message, rng);
    const std::string bad_msg = mutate(message, handshake, rng);
    EXPECT_NO_THROW({
      (void)Handshake::decode(bad_hs);
      if (const auto body = decode_bitfield_message(bad_msg)) {
        ++decoded;
        EXPECT_EQ(body->size() + 5, bad_msg.size());
      }
      seeders += looks_like_seeder(bad_hs, bad_msg, hs.infohash, pieces);
      seeders += looks_like_seeder(handshake, bad_msg, hs.infohash, pieces);
    }) << "round " << round;
  }
  // The loop exercised both outcomes: some mutants still decode (flips in
  // the body), most do not.
  EXPECT_GT(decoded, 0u);
  EXPECT_GT(seeders, 0u);
}

}  // namespace
}  // namespace btpub
