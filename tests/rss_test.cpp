// RSS 2.0 feed rendering and parsing (the crawler's discovery input), and
// a seeded, corpus-free mutation loop over rendered feeds: bit flips,
// truncations, splices of two feeds and inflated character references.
// Every mutant either parses or throws std::invalid_argument, and each
// parse allocates in proportion to the mutant's size (counted by
// counting_allocator.hpp). Out-of-bounds reads trip the ASan/UBSan build.
#include "portal/rss.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "counting_allocator.hpp"
#include "util/rng.hpp"

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
                                  .torrent = {.head = "x", .tail = {}},
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

// ---------------------------------------------------------------- mutation

// Allocation bounds for one parse of an n-byte feed: bytes allocated
// beyond kSlackBytes, per input byte. The largest single block is the item
// vector; the total adds its growth and one unescaped copy of each text
// node (unescaped straight from a view of the input). Measured maxima over
// the mutants below: 0.85 for the largest block and 3.52 in total. The
// bounds are those plus a margin, so a second copy of each text node
// (5.29 in total) fails.
constexpr std::uint64_t kMaxBlockPerByte = 1;
constexpr std::uint64_t kMaxTotalPerByte = 4;
constexpr std::uint64_t kSlackBytes = 4 * 1024;

struct Tally {
  int parsed = 0;
  int rejected = 0;
};

/// Parses one mutant: it must parse or throw std::invalid_argument, in
/// bounded memory.
void check_mutant(const std::string& mutant, Tally& tally) {
  SCOPED_TRACE("mutant of " + std::to_string(mutant.size()) + " bytes");
  g_alloc_bytes.store(0, std::memory_order_relaxed);
  g_alloc_max.store(0, std::memory_order_relaxed);
  bool parsed = false;
  try {
    parse_rss(mutant);
    parsed = true;
  } catch (const std::invalid_argument&) {
  }
  const std::uint64_t total = g_alloc_bytes.load(std::memory_order_relaxed);
  const std::uint64_t block = g_alloc_max.load(std::memory_order_relaxed);
  EXPECT_LE(block, kMaxBlockPerByte * mutant.size() + kSlackBytes);
  EXPECT_LE(total, kMaxTotalPerByte * mutant.size() + kSlackBytes);
  ++(parsed ? tally.parsed : tally.rejected);
}

/// Two rendered feeds with different items, escapes included.
std::vector<std::string> base_feeds() {
  const std::vector<RssItem> a{make_item(0, "First.Release.2010"),
                               make_item(1, "Second<&>Release"),
                               make_item(2, "Third 'quoted' \"thing\"")};
  const std::vector<RssItem> b{make_item(40, "caf\xC3\xA9 au lait"),
                               make_item(41, "Pack [x264] & co")};
  return {render_rss("the-sim-bay", a), render_rss("mini-nova", b)};
}

TEST(RssMutation, CleanFeedsParse) {
  Tally tally;
  for (const std::string& feed : base_feeds()) check_mutant(feed, tally);
  EXPECT_EQ(tally.parsed, 2);
}

TEST(RssMutation, BitFlipsParseOrThrow) {
  Rng rng(0x7551);  // fixed: the same mutations on every run, no corpus
  Tally tally;
  for (const std::string& clean : base_feeds()) {
    for (std::size_t bit = 0; bit < clean.size() * 8; ++bit) {
      std::string m = clean;
      m[bit / 8] = static_cast<char>(m[bit / 8] ^ (1 << (bit % 8)));
      check_mutant(m, tally);
    }
    for (int k = 0; k < 1000; ++k) {
      std::string m = clean;
      for (int flips = 2 + static_cast<int>(rng.index(4)); flips > 0; --flips) {
        const std::size_t bit = rng.index(m.size() * 8);
        m[bit / 8] = static_cast<char>(m[bit / 8] ^ (1 << (bit % 8)));
      }
      check_mutant(m, tally);
    }
  }
  // A flip inside character data keeps the feed valid; a flip in markup
  // mostly breaks it. Both paths must have run.
  EXPECT_GT(tally.parsed, 0);
  EXPECT_GT(tally.rejected, 0);
}

TEST(RssMutation, TruncationsBeforeTheCloseTagAreRejected) {
  for (const std::string& clean : base_feeds()) {
    const std::size_t end = clean.rfind("</rss>") + 6;
    Tally tally;
    for (std::size_t len = 0; len < end; ++len) {
      check_mutant(clean.substr(0, len), tally);
    }
    EXPECT_EQ(tally.parsed, 0);
    // Only trailing whitespace follows the close tag.
    check_mutant(clean.substr(0, end), tally);
    EXPECT_EQ(tally.parsed, 1);
  }
}

TEST(RssMutation, SplicesOfTwoFeedsParseOrThrow) {
  Rng rng(0x5911ce);
  const std::vector<std::string> feeds = base_feeds();
  Tally tally;
  for (int k = 0; k < 4000; ++k) {
    const std::string& a = feeds[rng.index(feeds.size())];
    const std::string& b = feeds[rng.index(feeds.size())];
    check_mutant(a.substr(0, rng.index(a.size() + 1)) +
                     b.substr(rng.index(b.size() + 1)),
                 tally);
  }
  // Splicing two feeds between items gives a valid feed with both halves.
  const std::size_t cut_a = feeds[0].find("<item>", feeds[0].find("<item>") + 1);
  const std::size_t cut_b = feeds[1].find("<item>");
  check_mutant(feeds[0].substr(0, cut_a) + feeds[1].substr(cut_b), tally);
  EXPECT_EQ(parse_rss(feeds[0].substr(0, cut_a) + feeds[1].substr(cut_b))
                .items.size(),
            3u);
  EXPECT_GT(tally.parsed, 0);
  EXPECT_GT(tally.rejected, 0);
}

TEST(RssMutation, InflatedCharacterReferencesParseOrThrow) {
  // Each reference is inserted at the start of every text node: valid ones
  // (padded digits, the largest code point, long runs) must parse, and
  // out-of-range or malformed ones must throw, all in bounded memory.
  std::string run;
  for (int i = 0; i < 2000; ++i) run += "&#x10FFFF;";
  const std::vector<std::string> references{
      "&#65;", "&#x41;", "&#" + std::string(4000, '0') + "65;", "&#x10FFFF;",
      run, "&#1114112;", "&#4294967361;", "&#99999999999999999999999;",
      "&#x" + std::string(4000, 'F') + ";", "&#;", "&#x;", "&amp",
      "&" + std::string(4000, 'a') + ";"};
  Tally tally;
  for (const std::string& clean : base_feeds()) {
    for (std::size_t pos = clean.find('>'); pos != std::string::npos;
         pos = clean.find('>', pos + 1)) {
      if (pos + 1 >= clean.size() || clean[pos + 1] == '<' ||
          clean[pos + 1] == '\n') {
        continue;  // not the start of a text node
      }
      for (const std::string& ref : references) {
        check_mutant(clean.substr(0, pos + 1) + ref + clean.substr(pos + 1),
                     tally);
      }
    }
  }
  EXPECT_GT(tally.parsed, 0);
  EXPECT_GT(tally.rejected, 0);
}

}  // namespace
}  // namespace btpub
