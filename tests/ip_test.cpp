// IPv4 value types and compact peer-list encoding.
#include <gtest/gtest.h>

#include "net/compact.hpp"
#include "net/ip.hpp"

namespace btpub {
namespace {

TEST(IpAddress, FormatAndValue) {
  const IpAddress ip(192, 168, 1, 42);
  EXPECT_EQ(ip.to_string(), "192.168.1.42");
  EXPECT_EQ(ip.value(), 0xC0A8012Au);
  EXPECT_EQ(IpAddress(0x01020304u).to_string(), "1.2.3.4");
}

TEST(IpAddress, ParseValid) {
  const auto ip = IpAddress::parse("10.0.255.7");
  ASSERT_TRUE(ip.has_value());
  EXPECT_EQ(*ip, IpAddress(10, 0, 255, 7));
  EXPECT_EQ(IpAddress::parse("0.0.0.0")->value(), 0u);
  EXPECT_EQ(IpAddress::parse("255.255.255.255")->value(), 0xFFFFFFFFu);
}

class BadIpParse : public ::testing::TestWithParam<const char*> {};

TEST_P(BadIpParse, Rejected) {
  EXPECT_FALSE(IpAddress::parse(GetParam()).has_value()) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Malformed, BadIpParse,
                         ::testing::Values("", "1.2.3", "1.2.3.4.5", "256.1.1.1",
                                           "1.2.3.x", "a.b.c.d", "1..2.3",
                                           "1.2.3.1234", " 1.2.3.4"));

TEST(IpAddress, Ordering) {
  EXPECT_LT(IpAddress(1, 0, 0, 0), IpAddress(2, 0, 0, 0));
  EXPECT_EQ(IpAddress(9, 9, 9, 9), IpAddress(9, 9, 9, 9));
}

TEST(Prefix16, Extraction) {
  const Prefix16 p(IpAddress(81, 93, 17, 200));
  EXPECT_EQ(p.value(), (81u << 8) | 93u);
  EXPECT_EQ(Prefix16(IpAddress(81, 93, 0, 1)), p);
  EXPECT_NE(Prefix16(IpAddress(81, 94, 0, 1)), p);
}

TEST(CidrBlock, MasksBase) {
  const CidrBlock block(IpAddress(10, 1, 2, 3), 16);
  EXPECT_EQ(block.base().to_string(), "10.1.0.0");
  EXPECT_EQ(block.size(), 65536u);
}

TEST(CidrBlock, At) {
  const CidrBlock block(IpAddress(10, 1, 0, 0), 24);
  EXPECT_EQ(block.at(7), IpAddress(10, 1, 0, 7));
  EXPECT_EQ(block.size(), 256u);
}

TEST(CidrBlock, ExtremeLengths) {
  const CidrBlock all(IpAddress(1, 2, 3, 4), 0);
  EXPECT_EQ(all.base(), IpAddress(0, 0, 0, 0));
  EXPECT_EQ(all.size(), 1ull << 32);
  const CidrBlock host(IpAddress(1, 2, 3, 4), 32);
  EXPECT_EQ(host.at(0), IpAddress(1, 2, 3, 4));
  EXPECT_EQ(host.size(), 1u);
}

TEST(EndpointTest, Hash) {
  const Endpoint e{IpAddress(1, 2, 3, 4), 6881};
  const Endpoint same{IpAddress(1, 2, 3, 4), 6881};
  const Endpoint other{IpAddress(1, 2, 3, 4), 6882};
  EXPECT_EQ(std::hash<Endpoint>{}(e), std::hash<Endpoint>{}(same));
  EXPECT_EQ(e, same);
  EXPECT_NE(e, other);
}

TEST(CompactPeers, SixBigEndianBytesPerPeer) {
  const std::vector<Endpoint> peers{
      {IpAddress(0x01, 0x02, 0x03, 0x04), 0x1A2B},
      {IpAddress(255, 254, 253, 252), 65535},
      {IpAddress(0, 0, 0, 1), 1},
  };
  std::string wire;
  for (const Endpoint& peer : peers) append_compact_peer(wire, peer);
  EXPECT_EQ(wire, std::string("\x01\x02\x03\x04\x1A\x2B"
                              "\xFF\xFE\xFD\xFC\xFF\xFF"
                              "\x00\x00\x00\x01\x00\x01",
                              18));
}

}  // namespace
}  // namespace btpub
