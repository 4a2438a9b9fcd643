// Determinism proof for the parallel ecosystem build: the generated world
// — observed through both crawl vantages — is byte-identical whether the
// publication fan-out runs on 1 worker or many. Each publication draws
// from its own derive_seed substream and results merge in event order, so
// scheduling can never leak into the dataset; these tests pin that.
//
// Thread count for the parallel side defaults to 4 and can be overridden
// with BTPUB_TEST_THREADS (the TSan CI job exercises 4).
#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <memory>
#include <sstream>
#include <string>

#include "core/ecosystem.hpp"
#include "crawler/compact_dataset.hpp"
#include "crawler/dataset_mmap.hpp"
#include "dataset_fixture.hpp"

namespace btpub {
namespace {

std::size_t parallel_threads() {
  if (const char* env = std::getenv("BTPUB_TEST_THREADS")) {
    const auto n = std::strtoull(env, nullptr, 10);
    if (n > 1) return static_cast<std::size_t>(n);
  }
  return 4;
}

/// spoofed() covers the decoy-injection branch too; shrunk so the test
/// builds and crawls two full ecosystems in seconds.
ScenarioConfig small_scenario(std::size_t threads) {
  ScenarioConfig config = ScenarioConfig::spoofed(7);
  config.window = days(3);
  config.population.regular_publishers /= 4;
  config.threads = threads;
  return config;
}

class EcosystemParallelTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    serial_ = new Ecosystem(small_scenario(1));
    serial_->build();
    parallel_ = new Ecosystem(small_scenario(parallel_threads()));
    parallel_->build();
  }
  static void TearDownTestSuite() {
    delete serial_;
    delete parallel_;
    serial_ = nullptr;
    parallel_ = nullptr;
  }

  static Ecosystem* serial_;
  static Ecosystem* parallel_;
};

Ecosystem* EcosystemParallelTest::serial_ = nullptr;
Ecosystem* EcosystemParallelTest::parallel_ = nullptr;

TEST_F(EcosystemParallelTest, GroundTruthMatches) {
  ASSERT_EQ(serial_->torrent_count(), parallel_->torrent_count());
  for (std::size_t i = 0; i < serial_->torrent_count(); ++i) {
    const TorrentTruth& a = serial_->truth(i);
    const TorrentTruth& b = parallel_->truth(i);
    ASSERT_EQ(a.publisher, b.publisher) << i;
    ASSERT_EQ(a.publisher_ip, b.publisher_ip) << i;
    ASSERT_EQ(a.removal_time, b.removal_time) << i;
    ASSERT_EQ(a.cross_posted, b.cross_posted) << i;
    ASSERT_EQ(a.seed_sessions.size(), b.seed_sessions.size()) << i;
    ASSERT_EQ(serial_->swarm_of(i).infohash(), parallel_->swarm_of(i).infohash())
        << i;
  }
}

TEST_F(EcosystemParallelTest, TrackerCrawlByteIdentical) {
  EXPECT_EQ(serial_->crawl(), parallel_->crawl());
}

TEST_F(EcosystemParallelTest, DhtCrawlByteIdentical) {
  EXPECT_EQ(serial_->dht_crawl(), parallel_->dht_crawl());
}

TEST_F(EcosystemParallelTest, BuildStatsRecorded) {
  EXPECT_EQ(serial_->build_stats().build_threads, 1u);
  EXPECT_EQ(parallel_->build_stats().build_threads, parallel_threads());
  // Every publication event committed exactly one torrent, on both sides.
  EXPECT_EQ(serial_->build_stats().publication_events, serial_->torrent_count());
  EXPECT_EQ(parallel_->build_stats().publication_events,
            parallel_->torrent_count());
}

TEST_F(EcosystemParallelTest, OverlayAnnouncesAreLazyCursors) {
  // Periodic announces are lazy cursors: far fewer records are ever
  // pending than occurrences dispatched.
  const SimTime horizon = serial_->config().window + days(1);
  const auto overlay = serial_->build_dht_overlay(horizon);
  const dht::EventQueue& q = overlay->events();
  const std::size_t cursors = q.pending();
  ASSERT_GT(cursors, 0u);
  overlay->advance_to(horizon);
  EXPECT_EQ(q.pending(), 0u);
  // Re-arming happened: the same cursor records carried many occurrences.
  EXPECT_GT(q.dispatched(), static_cast<std::uint64_t>(cursors));
}

TEST_F(EcosystemParallelTest, CompactFormByteIdentical) {
  // The struct-of-arrays conversion is itself deterministic (interning and
  // flattening walk torrents in index order, user pages are sorted), so
  // the 1-vs-N invariant must survive it: identical compact arrays, and an
  // N-thread view holding every field of the 1-thread crawl.
  const Dataset serial = serial_->crawl();
  const CompactDataset a = compact_dataset(serial);
  const CompactDataset b = compact_dataset(parallel_->crawl());
  EXPECT_EQ(a.text, b.text);
  EXPECT_EQ(a.peer_blob, b.peer_blob);
  EXPECT_EQ(std::memcmp(a.torrents.data(), b.torrents.data(),
                        a.torrents.size() * sizeof(TorrentRecordPod)),
            0);
  expect_view_matches(serial, b.view());
}

TEST_F(EcosystemParallelTest, MmapSnapshotByteIdentical) {
  // End-to-end: the on-disk snapshot written from a 1-thread build equals
  // the one written from an N-thread build, byte for byte.
  std::ostringstream a(std::ios::binary), b(std::ios::binary);
  save_mmap_snapshot(compact_dataset(serial_->crawl()), a);
  save_mmap_snapshot(compact_dataset(parallel_->crawl()), b);
  ASSERT_FALSE(a.str().empty());
  EXPECT_EQ(a.str(), b.str());
}

TEST_F(EcosystemParallelTest, RepeatedDhtCrawlsIdentical) {
  // dht_crawl rebuilds a fresh overlay per call; two calls on the same
  // ecosystem must agree byte-for-byte (no hidden state carries over).
  EXPECT_EQ(parallel_->dht_crawl(), parallel_->dht_crawl());
}

}  // namespace
}  // namespace btpub
