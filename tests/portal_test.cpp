// Portal tests: indexing, RSS, time-aware moderation, user pages.
#include "portal/portal.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "counting_allocator.hpp"
#include "torrent/metainfo.hpp"

namespace btpub {
namespace {

PublishRequest make_request(const std::string& user, const std::string& title,
                            PayloadKind payload = PayloadKind::Genuine) {
  PublishRequest r;
  r.title = title;
  r.category = ContentCategory::Movies;
  r.username = user;
  r.textbox = "Visit http://www.example.com/ for more";
  r.torrent.head = "d4:infod4:name1:xee";  // opaque to the portal: head only
  r.infohash = Sha1::hash(title);
  r.size_bytes = 1000;
  r.payload = payload;
  return r;
}

TEST(Portal, PublishAssignsDenseIds) {
  Portal portal("test");
  EXPECT_EQ(portal.newest_id(), kInvalidTorrent);
  const TorrentId a = portal.publish(make_request("u1", "A"), 100);
  const TorrentId b = portal.publish(make_request("u2", "B"), 200);
  EXPECT_EQ(a, 0u);
  EXPECT_EQ(b, 1u);
  EXPECT_EQ(portal.newest_id(), b);
  EXPECT_EQ(portal.listing_count(), 2u);
}

TEST(Portal, PublishRejectsEmptyUsernameAndTimeTravel) {
  Portal portal("test");
  EXPECT_THROW(portal.publish(make_request("", "A"), 10), std::invalid_argument);
  portal.publish(make_request("u", "A"), 100);
  EXPECT_THROW(portal.publish(make_request("u", "B"), 50), std::invalid_argument);
}

TEST(Portal, PageVisibilityRespectsTime) {
  Portal portal("test");
  const TorrentId id = portal.publish(make_request("u1", "A"), 100);
  EXPECT_FALSE(portal.page(id, 99).has_value());  // not yet published
  const auto page = portal.page(id, 100);
  ASSERT_TRUE(page.has_value());
  EXPECT_EQ(page->title, "A");
  EXPECT_EQ(page->username, "u1");
  EXPECT_FALSE(page->removed);
  EXPECT_FALSE(portal.page(999, 1000).has_value());  // unknown id
}

TEST(Portal, FetchTorrentAndPayload) {
  Portal portal("test");
  const TorrentId id =
      portal.publish(make_request("u1", "A", PayloadKind::FakeMalware), 100);
  EXPECT_EQ(portal.fetch_torrent(id, 100), "d4:infod4:name1:xee");
  EXPECT_EQ(portal.download_payload(id, 100), PayloadKind::FakeMalware);
  EXPECT_FALSE(portal.fetch_torrent(id, 99).has_value());
}

TEST(Portal, PublishHoldsNoPiecesBlob) {
  // 1000 MiB at the creator's 512 KiB: 2,000 pieces, a 40,000-byte blob.
  Metainfo m = Metainfo::make("http://tr.example/announce", "Big.Release.mkv",
                              {{"Big.Release.mkv", std::int64_t{1000} << 20}});
  ASSERT_EQ(m.piece_count(), 2000u);
  const std::string bytes = m.encode();
  PublishRequest r = make_request("u1", "A");
  Portal portal("test");
  g_alloc_bytes.store(0, std::memory_order_relaxed);
  r.torrent = std::move(m).file();  // the hand-over the ecosystem makes
  const TorrentId id = portal.publish(std::move(r), 100);
  EXPECT_LT(g_alloc_bytes.load(std::memory_order_relaxed), 4096u);
  EXPECT_EQ(portal.fetch_torrent(id, 100), bytes);
}

TEST(Portal, ModerationIsInvisibleBeforeItsTime) {
  Portal portal("test");
  const TorrentId id = portal.publish(make_request("baduser", "Fake"), 100);
  portal.moderate_remove(id, 500);
  // Before removal: fully visible, user in good standing.
  EXPECT_FALSE(portal.page(id, 499)->removed);
  EXPECT_TRUE(portal.fetch_torrent(id, 499).has_value());
  EXPECT_FALSE(portal.user_page("baduser", 499).banned);
  // After removal: tombstone page, fetches fail, account banned.
  const auto page = portal.page(id, 500);
  ASSERT_TRUE(page.has_value());
  EXPECT_TRUE(page->removed);
  EXPECT_TRUE(page->textbox.empty());
  EXPECT_FALSE(portal.fetch_torrent(id, 500).has_value());
  EXPECT_FALSE(portal.download_payload(id, 500).has_value());
  EXPECT_TRUE(portal.user_page("baduser", 500).banned);
}

TEST(Portal, EarlierRemovalWins) {
  Portal portal("test");
  const TorrentId id = portal.publish(make_request("u", "A"), 100);
  portal.moderate_remove(id, 900);
  portal.moderate_remove(id, 300);  // earlier report wins
  EXPECT_TRUE(portal.page(id, 300)->removed);
  portal.moderate_remove(id, 600);  // later report is a no-op
  EXPECT_TRUE(portal.page(id, 300)->removed);
}

TEST(Portal, RssReturnsOnlyNewVisibleItems) {
  Portal portal("test");
  const TorrentId a = portal.publish(make_request("u1", "A"), 100);
  const TorrentId b = portal.publish(make_request("u2", "B"), 200);
  portal.publish(make_request("u3", "C"), 300);

  // Reading at t=250 starting from scratch: A and B only.
  auto items = portal.rss_since(kInvalidTorrent, 250);
  ASSERT_EQ(items.size(), 2u);
  EXPECT_EQ(items[0].id, a);
  EXPECT_EQ(items[1].id, b);
  EXPECT_EQ(items[1].username, "u2");

  // Incremental read after B at t=400 sees only C.
  items = portal.rss_since(b, 400);
  ASSERT_EQ(items.size(), 1u);
  EXPECT_EQ(items[0].title, "C");
}

TEST(Portal, RssSkipsRemovedItems) {
  Portal portal("test");
  const TorrentId a = portal.publish(make_request("u1", "A"), 100);
  portal.publish(make_request("u2", "B"), 200);
  portal.moderate_remove(a, 250);
  const auto items = portal.rss_since(kInvalidTorrent, 300);
  ASSERT_EQ(items.size(), 1u);
  EXPECT_EQ(items[0].title, "B");
}

TEST(Portal, RssHonoursLimit) {
  Portal portal("test");
  for (int i = 0; i < 10; ++i) {
    std::string title = "T";
    title += std::to_string(i);
    portal.publish(make_request("u", title), 100 + i);
  }
  EXPECT_EQ(portal.rss_since(kInvalidTorrent, 1000, 4).size(), 4u);
}

TEST(Portal, UserPageAccumulatesHistory) {
  Portal portal("test");
  const std::vector<SimTime> history{-5000, -100};
  portal.record_history("vet", history);
  portal.publish(make_request("vet", "New"), 200);
  const UserPage page = portal.user_page("vet", 300);
  ASSERT_EQ(page.publish_times.size(), 3u);
  EXPECT_EQ(page.publish_times.front(), -5000);
  EXPECT_EQ(page.publish_times.back(), 200);
  EXPECT_FALSE(page.banned);
}

TEST(Portal, HistoryBatchesMergeLikeOneInsertPerEvent) {
  // A second batch with duplicates of the first and runs of equal times
  // lands where inserting each time after its equals would put it.
  const std::vector<SimTime> first{-9000, -700, -700, -50};
  const std::vector<SimTime> second{-9500, -9000, -700, -700, -300, -50, -50, -10};
  std::vector<SimTime> expected;
  for (const std::vector<SimTime>* batch : {&first, &second}) {
    for (const SimTime t : *batch) {
      expected.insert(std::upper_bound(expected.begin(), expected.end(), t), t);
    }
  }
  expected.push_back(200);

  Portal portal("test");
  portal.record_history("vet", first);
  portal.record_history("vet", second);
  portal.record_history("vet", {});
  portal.publish(make_request("vet", "New"), 200);
  EXPECT_EQ(portal.user_page("vet", 300).publish_times, expected);
  // A batch out of order is refused and leaves the history as it was.
  const std::vector<SimTime> unsorted{-5, -6};
  EXPECT_THROW(portal.record_history("vet", unsorted), std::invalid_argument);
  EXPECT_EQ(portal.user_page("vet", 300).publish_times, expected);
}

TEST(Portal, UserPageIsTimeFiltered) {
  Portal portal("test");
  portal.publish(make_request("u", "A"), 100);
  portal.publish(make_request("u", "B"), 500);
  EXPECT_EQ(portal.user_page("u", 300).publish_times.size(), 1u);
  EXPECT_EQ(portal.user_page("u", 500).publish_times.size(), 2u);
}

TEST(Portal, UnknownUserPageIsEmpty) {
  Portal portal("test");
  const UserPage page = portal.user_page("ghost", 100);
  EXPECT_TRUE(page.publish_times.empty());
  EXPECT_FALSE(page.banned);
}

}  // namespace
}  // namespace btpub
