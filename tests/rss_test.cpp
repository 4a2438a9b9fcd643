// RSS 2.0 feed rendering and parsing (the crawler's discovery input).
#include "portal/rss.hpp"

#include <gtest/gtest.h>

namespace btpub {
namespace {

RssItem make_item(TorrentId id, const std::string& title) {
  RssItem item;
  item.id = id;
  item.title = title;
  item.category = ContentCategory::Movies;
  item.username = "uploader" + std::to_string(id);
  item.size_bytes = 734003200 + id;
  item.published_at = hours(1) + id;
  return item;
}

TEST(XmlEscape, RoundTrips) {
  const std::string nasty = "a<b>&c\"d'e &amp; <already>";
  EXPECT_EQ(xml_unescape(xml_escape(nasty)), nasty);
  EXPECT_EQ(xml_escape("<&>"), "&lt;&amp;&gt;");
}

TEST(XmlEscape, PlainTextUntouched) {
  EXPECT_EQ(xml_escape("Dark.Horizon.2010"), "Dark.Horizon.2010");
}

TEST(XmlUnescape, CharacterReferences) {
  EXPECT_EQ(xml_unescape("&#65;&#x42;"), "AB");
  EXPECT_EQ(xml_unescape("caf&#xE9;"), "caf\xC3\xA9");  // UTF-8 e-acute
}

TEST(XmlUnescape, RejectsMalformed) {
  EXPECT_THROW(xml_unescape("&unterminated"), std::invalid_argument);
  EXPECT_THROW(xml_unescape("&bogus;"), std::invalid_argument);
  EXPECT_THROW(xml_unescape("&#;"), std::invalid_argument);
  EXPECT_THROW(xml_unescape("&#x110000;"), std::invalid_argument);
  EXPECT_THROW(xml_unescape("&#0;"), std::invalid_argument);
}

TEST(Rss, RenderParseRoundTrip) {
  std::vector<RssItem> items{make_item(0, "First.Release.2010"),
                             make_item(1, "Second<&>Release"),
                             make_item(2, "Third 'quoted' \"thing\"")};
  const std::string xml = render_rss("the-sim-bay", items);
  const RssDocument doc = parse_rss(xml);
  EXPECT_EQ(doc.channel_title, "the-sim-bay");
  ASSERT_EQ(doc.items.size(), 3u);
  for (std::size_t i = 0; i < items.size(); ++i) {
    EXPECT_EQ(doc.items[i].id, items[i].id);
    EXPECT_EQ(doc.items[i].title, items[i].title);
    EXPECT_EQ(doc.items[i].category, items[i].category);
    EXPECT_EQ(doc.items[i].username, items[i].username);
    EXPECT_EQ(doc.items[i].size_bytes, items[i].size_bytes);
    EXPECT_EQ(doc.items[i].published_at, items[i].published_at);
  }
}

TEST(Rss, EmptyFeed) {
  const std::string xml = render_rss("quiet-portal", {});
  const RssDocument doc = parse_rss(xml);
  EXPECT_EQ(doc.channel_title, "quiet-portal");
  EXPECT_TRUE(doc.items.empty());
}

TEST(Rss, DocumentLooksLikeRss2) {
  const std::vector<RssItem> items{make_item(7, "X")};
  const std::string xml = render_rss("p", items);
  EXPECT_NE(xml.find("<?xml version=\"1.0\""), std::string::npos);
  EXPECT_NE(xml.find("<rss version=\"2.0\""), std::string::npos);
  EXPECT_NE(xml.find("<guid>7</guid>"), std::string::npos);
  EXPECT_NE(xml.find("<btpub:user>uploader7</btpub:user>"), std::string::npos);
}

TEST(Rss, ToleratesUnknownElementsAndComments) {
  const std::string xml = R"(<?xml version="1.0"?>
<!-- a comment -->
<rss version="2.0"><channel>
<title>p</title><description>d</description>
<item>
  <title>T</title><guid>3</guid>
  <link>http://example/3</link>
  <category>Movies</category>
</item>
</channel></rss>)";
  const RssDocument doc = parse_rss(xml);
  ASSERT_EQ(doc.items.size(), 1u);
  EXPECT_EQ(doc.items[0].id, 3u);
  EXPECT_EQ(doc.items[0].category, ContentCategory::Movies);
}

TEST(Rss, RejectsMalformedDocuments) {
  EXPECT_THROW(parse_rss("not xml at all"), std::invalid_argument);
  EXPECT_THROW(parse_rss("<rss><channel></channel></rss>"),
               std::invalid_argument);  // missing title
  EXPECT_THROW(
      parse_rss("<rss><channel><title>t</title><description>d</description>"
                "<item><title>x</title></item></channel></rss>"),
      std::invalid_argument);  // item missing guid
  EXPECT_THROW(
      parse_rss("<rss><channel><title>t</title><description>d</description>"
                "</channel></rss>trailing"),
      std::invalid_argument);
  EXPECT_THROW(
      parse_rss("<rss><channel><title>t</channel></title>"),  // mismatched
      std::invalid_argument);
}

TEST(Rss, PortalFeedIsParseable) {
  // End to end: a real portal's rss_since rendered and re-parsed.
  Portal portal("feed-test");
  for (int i = 0; i < 5; ++i) {
    const std::string n = std::to_string(i);
    portal.publish(PublishRequest{.title = "Item & <" + n + ">",
                                  .category = ContentCategory::Music,
                                  .username = "user" + n,
                                  .textbox = {},
                                  .torrent_bytes = "x",
                                  .infohash = {},
                                  .size_bytes = 1000 + i},
                   100 + i);
  }
  const auto items = portal.rss_since(kInvalidTorrent, 1000);
  const RssDocument doc = parse_rss(render_rss(portal.name(), items));
  ASSERT_EQ(doc.items.size(), 5u);
  EXPECT_EQ(doc.items[2].title, "Item & <2>");
  EXPECT_EQ(doc.items[2].username, "user2");
}

}  // namespace
}  // namespace btpub
