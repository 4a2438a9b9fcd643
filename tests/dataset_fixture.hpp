// Shared base for analysis test fixtures: a test builds dataset_ record by
// record, then hands view() to the pass under test. Also holds
// expect_view_matches, the field-by-field check that a view (in memory or
// mapped from a snapshot) carries exactly what a crawl Dataset held.
#pragma once

#include "crawler/compact_dataset.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace btpub {

class DatasetFixture : public ::testing::Test {
 protected:
  /// dataset_ in the analysis layer's input form, re-compacted on each
  /// call so it reflects every edit made so far. Valid until the next call.
  CompactDatasetView view() {
    compact_ = compact_dataset(dataset_);
    return compact_.view();
  }

  Dataset dataset_;

 private:
  CompactDataset compact_;
};

/// Checks every header field, every torrent field (downloaders and
/// sightings in order) and every user page of `expected` against `view`,
/// and that the view holds nothing more.
inline void expect_view_matches(const Dataset& expected,
                                const CompactDatasetView& view) {
  EXPECT_EQ(view.name, expected.name);
  EXPECT_EQ(view.style, expected.style);
  EXPECT_EQ(view.window_start, expected.window_start);
  EXPECT_EQ(view.window_end, expected.window_end);

  ASSERT_EQ(view.torrent_count(), expected.torrents.size());
  for (std::size_t i = 0; i < expected.torrents.size(); ++i) {
    SCOPED_TRACE("torrent " + std::to_string(i));
    const TorrentRecord& want = expected.torrents[i];
    const TorrentRecordPod& got = view.torrents[i];
    EXPECT_EQ(got.portal_id, want.portal_id);
    EXPECT_EQ(got.infohash, want.infohash.bytes);
    EXPECT_EQ(view.title(got), want.title);
    EXPECT_EQ(got.category, static_cast<std::uint8_t>(want.category));
    EXPECT_EQ(got.language, static_cast<std::uint8_t>(want.language));
    EXPECT_EQ(got.size_bytes, want.size_bytes);
    EXPECT_EQ(view.username(got), want.username);
    EXPECT_EQ(view.publisher_ip(got), want.publisher_ip);
    EXPECT_EQ(got.published_at, want.published_at);
    EXPECT_EQ(got.first_seen, want.first_seen);
    EXPECT_EQ(view.textbox(got), want.textbox);
    std::vector<std::string> filenames;
    for (const StrRef ref : view.filenames_of(got)) {
      filenames.emplace_back(view.str(ref));
    }
    EXPECT_EQ(filenames, want.payload_filenames);
    EXPECT_EQ(got.piece_count, want.piece_count);
    EXPECT_EQ((got.flags & TorrentRecordPod::kObservedRemoved) != 0,
              want.observed_removed);
    EXPECT_EQ(got.observed_removed_at, want.observed_removed_at);
    EXPECT_EQ(got.initial_seeders, want.initial_seeders);
    EXPECT_EQ(got.initial_peers, want.initial_peers);
    EXPECT_EQ(got.query_count, want.query_count);
    EXPECT_EQ(got.max_concurrent, want.max_concurrent);

    std::vector<IpAddress> downloaders;
    for (std::uint32_t k = 0; k < view.downloader_count(got); ++k) {
      downloaders.push_back(view.downloader_ip(got, k));
    }
    EXPECT_EQ(downloaders, expected.downloaders[i]);
    const auto sightings = view.sightings_of(got);
    EXPECT_EQ(std::vector<SimTime>(sightings.begin(), sightings.end()),
              expected.publisher_sightings[i]);
  }

  ASSERT_EQ(view.user_pages.size(), expected.user_pages.size());
  for (std::size_t k = 1; k < view.user_pages.size(); ++k) {
    EXPECT_LT(view.str(view.user_pages[k - 1].username),
              view.str(view.user_pages[k].username));
  }
  for (const auto& [name, page] : expected.user_pages) {
    SCOPED_TRACE("user page " + name);
    const UserPagePod* got = view.find_user(name);
    ASSERT_NE(got, nullptr);
    EXPECT_EQ((got->flags & UserPagePod::kBanned) != 0, page.banned);
    const auto times = view.publish_times_of(*got);
    EXPECT_EQ(std::vector<SimTime>(times.begin(), times.end()),
              page.publish_times);
  }
}

}  // namespace btpub
