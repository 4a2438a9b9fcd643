// End-to-end integration: the quick scenario generated, crawled and
// analysed, with invariants checked against generator ground truth.
#include "core/ecosystem.hpp"

#include <gtest/gtest.h>

#include <unordered_set>

#include "analysis/classify.hpp"
#include "analysis/contribution.hpp"
#include "analysis/groups.hpp"
#include "analysis/session.hpp"

namespace btpub {
namespace {

/// One shared quick-scenario run for the whole suite (building takes a few
/// seconds; the assertions are all read-only).
class EcosystemTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    eco_ = new Ecosystem(ScenarioConfig::quick(7));
    eco_->build();
    dataset_ = new Dataset(eco_->crawl());
    compact_ = new CompactDataset(compact_dataset(*dataset_));
  }
  static void TearDownTestSuite() {
    delete compact_;
    delete dataset_;
    delete eco_;
    compact_ = nullptr;
    dataset_ = nullptr;
    eco_ = nullptr;
  }

  static Ecosystem* eco_;
  static Dataset* dataset_;
  /// The analysis layer's input form of dataset_.
  static CompactDataset* compact_;
};

Ecosystem* EcosystemTest::eco_ = nullptr;
Dataset* EcosystemTest::dataset_ = nullptr;
CompactDataset* EcosystemTest::compact_ = nullptr;

TEST_F(EcosystemTest, GeneratesSubstantialWorld) {
  EXPECT_GT(eco_->torrent_count(), 300u);
  EXPECT_EQ(dataset_->torrent_count(), eco_->torrent_count());
  EXPECT_GT(compact_->view().distinct_ips_global(), 1000u);
  EXPECT_EQ(compact_->view().with_username(), dataset_->torrent_count());
}

TEST_F(EcosystemTest, TruthAndDatasetAligned) {
  ASSERT_EQ(eco_->truths().size(), dataset_->torrent_count());
  for (std::size_t i = 0; i < dataset_->torrent_count(); ++i) {
    const TorrentRecord& record = dataset_->torrents[i];
    const TorrentTruth& truth = eco_->truth(record.portal_id);
    EXPECT_EQ(truth.portal_id, record.portal_id);
    // The username the crawler saw belongs to the publisher that truth says
    // published it.
    const auto it = eco_->population().owner_of_username.find(record.username);
    ASSERT_NE(it, eco_->population().owner_of_username.end());
    EXPECT_EQ(it->second, truth.publisher);
  }
}

TEST_F(EcosystemTest, IdentifiedPublisherIpsAreCorrect) {
  std::size_t identified = 0, correct = 0;
  for (std::size_t i = 0; i < dataset_->torrent_count(); ++i) {
    const TorrentRecord& record = dataset_->torrents[i];
    if (!record.publisher_ip) continue;
    ++identified;
    const TorrentTruth& truth = eco_->truth(record.portal_id);
    if (*record.publisher_ip == truth.publisher_ip) ++correct;
  }
  ASSERT_GT(identified, 100u);
  // Identification can legitimately go wrong (cross-posted swarms where a
  // downloader finished first), but must be overwhelmingly right.
  EXPECT_GT(static_cast<double>(correct) / static_cast<double>(identified), 0.9);
}

TEST_F(EcosystemTest, NattedPublishersNeverIdentifiedByProbe) {
  for (std::size_t i = 0; i < dataset_->torrent_count(); ++i) {
    const TorrentRecord& record = dataset_->torrents[i];
    const TorrentTruth& truth = eco_->truth(record.portal_id);
    if (truth.publisher_nat && record.publisher_ip) {
      // A NATed publisher cannot be probe-verified; any identified IP here
      // must be a (rare) mis-identification of another complete peer.
      EXPECT_NE(*record.publisher_ip, truth.publisher_ip);
    }
  }
}

TEST_F(EcosystemTest, FakeTorrentsGetRemovedGenuineDoNot) {
  std::size_t fake = 0, removed_fake = 0;
  for (const TorrentTruth& truth : eco_->truths()) {
    if (is_fake(truth.publisher_class)) {
      ++fake;
      if (truth.removal_time >= 0) ++removed_fake;
    } else {
      EXPECT_LT(truth.removal_time, 0);
    }
  }
  ASSERT_GT(fake, 50u);
  EXPECT_EQ(removed_fake, fake);  // moderation always catches fakes eventually
}

TEST_F(EcosystemTest, FakeDetectionPrecisionAndRecall) {
  const IdentityAnalysis identity(compact_->view(), eco_->geo(), 40);
  std::size_t true_positive = 0, false_positive = 0, false_negative = 0;
  for (const UsernameStats& stats : identity.usernames()) {
    const auto owner =
        eco_->population().owner_of_username.at(stats.username);
    const bool truly_fake = is_fake(eco_->population().by_id(owner).cls);
    const bool flagged = identity.is_fake(stats.username);
    if (truly_fake && flagged) ++true_positive;
    if (!truly_fake && flagged) ++false_positive;
    if (truly_fake && !flagged) ++false_negative;
  }
  ASSERT_GT(true_positive, 20u);
  const double precision = static_cast<double>(true_positive) /
                           static_cast<double>(true_positive + false_positive);
  const double recall = static_cast<double>(true_positive) /
                        static_cast<double>(true_positive + false_negative);
  EXPECT_GT(precision, 0.95);
  EXPECT_GT(recall, 0.85);
}

TEST_F(EcosystemTest, MajorPublishersDominate) {
  const IdentityAnalysis identity(compact_->view(), eco_->geo(), 40);
  const auto fake = identity.share_of(TargetGroup::Fake);
  const auto top = identity.share_of(TargetGroup::Top);
  // The paper's headline: fake + top publishers own roughly 2/3 of the
  // content and 3/4 of the downloads. Loose bands for the small scenario.
  EXPECT_GT(fake.content + top.content, 0.45);
  EXPECT_LT(fake.content + top.content, 0.9);
  EXPECT_GT(fake.downloads + top.downloads, 0.5);
  // Fake publishers alone sustain a sizeable poisoning attack.
  EXPECT_GT(fake.content, 0.15);
}

TEST_F(EcosystemTest, ContributionIsHeavilySkewed) {
  const IdentityAnalysis identity(compact_->view(), eco_->geo(), 40);
  const std::vector<double> xs{3.0};
  const auto curve = contribution_curve(identity, xs);
  EXPECT_GT(curve.points[0].content_percent, 20.0);  // top 3% >> uniform
  EXPECT_GT(curve.gini, 0.5);
}

TEST_F(EcosystemTest, SessionEstimatorTracksGroundTruthSeeding) {
  // For torrents with an identified (correct) publisher IP, the Appendix-A
  // reconstruction of its seeding time must track the generator's truth.
  const SimDuration gap = hours(4);
  double total_error = 0.0;
  std::size_t measured = 0;
  for (std::size_t i = 0; i < dataset_->torrent_count(); ++i) {
    const TorrentRecord& record = dataset_->torrents[i];
    const TorrentTruth& truth = eco_->truth(record.portal_id);
    if (!record.publisher_ip || *record.publisher_ip != truth.publisher_ip) {
      continue;
    }
    const auto& sightings = dataset_->publisher_sightings[i];
    if (sightings.size() < 4) continue;
    SimDuration true_time = 0;
    for (const Interval& s : truth.seed_sessions) true_time += s.length();
    if (true_time < hours(2)) continue;
    const auto sessions = reconstruct_sessions(sightings, gap);
    SimDuration estimated = 0;
    for (const Interval& s : sessions) estimated += s.length();
    total_error += std::abs(to_hours(estimated) - to_hours(true_time)) /
                   to_hours(true_time);
    ++measured;
  }
  ASSERT_GT(measured, 30u);
  // Mean relative error under 35%: the estimator works as Appendix A argues.
  EXPECT_LT(total_error / static_cast<double>(measured), 0.35);
}

TEST_F(EcosystemTest, CrawlIsDeterministic) {
  const Dataset again = eco_->crawl();
  ASSERT_EQ(again.torrent_count(), dataset_->torrent_count());
  for (std::size_t i = 0; i < again.torrent_count(); ++i) {
    EXPECT_EQ(again.torrents[i].query_count, dataset_->torrents[i].query_count);
    EXPECT_EQ(again.downloaders[i].size(), dataset_->downloaders[i].size());
    EXPECT_EQ(again.torrents[i].publisher_ip, dataset_->torrents[i].publisher_ip);
  }
}

TEST_F(EcosystemTest, WholeRunReproducibleFromSeed) {
  Ecosystem other(ScenarioConfig::quick(7));
  other.build();
  ASSERT_EQ(other.torrent_count(), eco_->torrent_count());
  const Dataset replay = other.crawl();
  EXPECT_EQ(replay.torrent_count(), dataset_->torrent_count());
  const CompactDataset compact_replay = compact_dataset(replay);
  EXPECT_EQ(compact_replay.view().distinct_ips_global(),
            compact_->view().distinct_ips_global());
  EXPECT_EQ(compact_replay.view().with_publisher_ip(),
            compact_->view().with_publisher_ip());
}

TEST_F(EcosystemTest, DifferentSeedDifferentWorld) {
  Ecosystem other(ScenarioConfig::quick(8));
  other.build();
  EXPECT_NE(other.torrent_count(), eco_->torrent_count());
}

TEST_F(EcosystemTest, ProfitDrivenClassificationRecoversGroundTruth) {
  const IdentityAnalysis identity(compact_->view(), eco_->geo(), 40);
  Rng rng(5);
  const auto classification =
      classify_top_publishers(compact_->view(), identity, eco_->websites(), 5, rng);
  std::size_t checked = 0, correct = 0;
  for (const PublisherProfile& profile : classification.profiles) {
    const auto owner = eco_->population().owner_of_username.at(profile.username);
    const PublisherClass truth = eco_->population().by_id(owner).cls;
    ++checked;
    const bool match =
        (profile.cls == BusinessClass::BtPortal &&
         truth == PublisherClass::TopPortalOwner) ||
        (profile.cls == BusinessClass::OtherWeb &&
         truth == PublisherClass::TopOtherWeb) ||
        (profile.cls == BusinessClass::Altruistic &&
         (truth == PublisherClass::TopAltruistic ||
          truth == PublisherClass::Regular));
    if (match) ++correct;
  }
  ASSERT_GT(checked, 10u);
  EXPECT_GT(static_cast<double>(correct) / static_cast<double>(checked), 0.9);
}

TEST_F(EcosystemTest, BuildTwiceThrows) {
  Ecosystem fresh(ScenarioConfig::quick(99));
  fresh.build();
  EXPECT_THROW(fresh.build(), std::logic_error);
}

TEST_F(EcosystemTest, CrawlBeforeBuildThrows) {
  Ecosystem fresh(ScenarioConfig::quick(100));
  EXPECT_THROW(fresh.crawl(), std::logic_error);
}

}  // namespace
}  // namespace btpub
