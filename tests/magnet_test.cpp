// Magnet URI (BEP 9) parsing.
#include "torrent/magnet.hpp"

#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <vector>

#include "util/strings.hpp"

namespace btpub {
namespace {

/// "magnet:?xt=urn:btih:<hex of infohash>" followed by `params`.
std::string magnet_uri(const Sha1Digest& infohash, std::string_view params = "") {
  return "magnet:?xt=urn:btih:" + infohash.hex() + std::string(params);
}

TEST(Magnet, ParsesNameAndTrackers) {
  const Sha1Digest infohash = Sha1::hash("some torrent");
  const std::string name = "Dark Horizon (2010) [DVDRip]";
  const std::vector<std::string> trackers = {
      "http://tracker.btpub.example/announce",
      "udp://tracker.btpub.example:6969"};
  const auto parsed = MagnetLink::parse(
      magnet_uri(infohash, "&dn=" + url_escape(name) + "&tr=" +
                               url_escape(trackers[0]) + "&tr=" +
                               url_escape(trackers[1])));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->infohash, infohash);
  EXPECT_EQ(parsed->display_name, name);
  EXPECT_EQ(parsed->trackers, trackers);
}

TEST(Magnet, MinimalForm) {
  const auto parsed = MagnetLink::parse(magnet_uri(Sha1::hash("x")));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->infohash, Sha1::hash("x"));
  EXPECT_TRUE(parsed->display_name.empty());
  EXPECT_TRUE(parsed->trackers.empty());
}

TEST(Magnet, UnescapesSpecialCharacters) {
  const auto parsed = MagnetLink::parse(
      magnet_uri(Sha1::hash("y"), "&dn=A%20%26%20B%20%3D%20C%3F"));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->display_name, "A & B = C?");
}

TEST(Magnet, IgnoresUnknownParameters) {
  const std::string uri = "magnet:?xt=urn:btih:" + Sha1::hash("z").hex() +
                          "&xl=12345&ws=http%3A%2F%2Fmirror.example%2F";
  const auto parsed = MagnetLink::parse(uri);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->infohash, Sha1::hash("z"));
}

TEST(Magnet, EscapedPeerHints) {
  // ':' is not an unreserved character, so a hint arrives escaped.
  const auto parsed = MagnetLink::parse(
      magnet_uri(Sha1::hash("hinted"),
                 "&x.pe=83.45.1.9%3A6881&x.pe=10.99.0.1%3A51413"));
  ASSERT_TRUE(parsed.has_value());
  const std::vector<Endpoint> peers = {{IpAddress(83, 45, 1, 9), 6881},
                                       {IpAddress(10, 99, 0, 1), 51413}};
  EXPECT_EQ(parsed->peers, peers);
}

TEST(Magnet, PeerHintParsesUnescapedColonToo) {
  const std::string uri = "magnet:?xt=urn:btih:" + Sha1::hash("h").hex() +
                          "&x.pe=192.168.1.2:6881";
  const auto parsed = MagnetLink::parse(uri);
  ASSERT_TRUE(parsed.has_value());
  ASSERT_EQ(parsed->peers.size(), 1u);
  EXPECT_EQ(parsed->peers[0], (Endpoint{IpAddress(192, 168, 1, 2), 6881}));
}

class BadPeerHint : public ::testing::TestWithParam<const char*> {};

TEST_P(BadPeerHint, Rejected) {
  const std::string uri = "magnet:?xt=urn:btih:" + Sha1::hash("h").hex() +
                          "&x.pe=" + GetParam();
  EXPECT_FALSE(MagnetLink::parse(uri).has_value()) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(
    Malformed, BadPeerHint,
    ::testing::Values("1.2.3.4",            // no port
                      "1.2.3.4:",           // empty port
                      ":6881",              // no host
                      "1.2.3.4:0",          // port zero
                      "1.2.3.4:65536",      // port overflow
                      "1.2.3.4:68x1",       // non-digit port
                      "not-an-ip:6881",     // bad address
                      "1.2.3:6881"));       // short address

class BadMagnet : public ::testing::TestWithParam<const char*> {};

TEST_P(BadMagnet, Rejected) {
  EXPECT_FALSE(MagnetLink::parse(GetParam()).has_value()) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(
    Malformed, BadMagnet,
    ::testing::Values(
        "",                                      // empty
        "http://not-a-magnet/",                  // wrong scheme
        "magnet:?dn=name-only",                  // no infohash
        "magnet:?xt=urn:btih:tooshort",          // bad hash length
        "magnet:?xt=urn:sha1:0000000000000000000000000000000000000000",  // wrong urn
        "magnet:?xt=urn:btih:zzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzz",  // bad hex
        "magnet:?xt",                            // no '='
        "magnet:?xt=urn:btih:0123456789abcdef0123456789abcdef01234567&dn=%zz"));

TEST(Magnet, AllZeroHashOnlyWhenLiteral) {
  const std::string zeros(40, '0');
  const auto parsed = MagnetLink::parse("magnet:?xt=urn:btih:" + zeros);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->infohash, Sha1Digest{});
}

}  // namespace
}  // namespace btpub
