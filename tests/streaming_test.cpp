// Streaming analysis layer (§4.5): the online session estimator, the
// real-time classifier's edge cases, and the headline convergence
// invariant — online end-of-crawl verdicts equal the batch pipeline's on
// the same observations, in any push order and from either vantage,
// with HLL distinct-IP estimates inside the documented error bound.
#include "analysis/streaming/streaming_classifier.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <unordered_set>
#include <vector>

#include "analysis/classify.hpp"
#include "analysis/groups.hpp"
#include "analysis/session.hpp"
#include "analysis/streaming/online_session.hpp"
#include "core/ecosystem.hpp"
#include "crawler/crawler.hpp"
#include "crawler/dht_crawler.hpp"

namespace btpub {
namespace {

// ---------------------------------------------------------------- sessions

TEST(OnlineSessionEstimator, EmptyEstimator) {
  OnlineSessionEstimator est;
  EXPECT_EQ(est.session_count(), 0u);
  EXPECT_EQ(est.sighting_count(), 0u);
  EXPECT_EQ(est.total_session_length(), 0);
  EXPECT_TRUE(est.intervals().empty());
}

TEST(OnlineSessionEstimator, SingleSightingIsOneQueryGapSession) {
  OnlineSessionEstimator est(hours(4), minutes(15));
  est.add_sighting(hours(2));
  ASSERT_EQ(est.session_count(), 1u);
  EXPECT_EQ(est.total_session_length(), minutes(15));
  const auto intervals = est.intervals();
  ASSERT_EQ(intervals.size(), 1u);
  EXPECT_EQ(intervals[0].start, hours(2));
  EXPECT_EQ(intervals[0].end, hours(2) + minutes(15));
}

TEST(OnlineSessionEstimator, DuplicatesAndInSessionSightingsAreAbsorbed) {
  OnlineSessionEstimator est(hours(4), minutes(15));
  est.add_sighting(0);
  est.add_sighting(hours(2));
  est.add_sighting(hours(1));  // strictly inside [0, 2h]
  est.add_sighting(hours(2));  // duplicate of the right edge
  ASSERT_EQ(est.session_count(), 1u);
  EXPECT_EQ(est.total_session_length(), hours(2) + minutes(15));
  EXPECT_EQ(est.sighting_count(), 4u);
}

TEST(OnlineSessionEstimator, LateSightingBridgesTwoSessions) {
  OnlineSessionEstimator est(hours(4), minutes(15));
  est.add_sighting(0);
  est.add_sighting(hours(10));
  ASSERT_EQ(est.session_count(), 2u);
  // 5h from both neighbours: still two sessions (gap > 4h on each side).
  est.add_sighting(hours(5));
  EXPECT_EQ(est.session_count(), 3u);
  // 4h closes both gaps at once: everything collapses into one session.
  OnlineSessionEstimator bridge(hours(4), minutes(15));
  bridge.add_sighting(0);
  bridge.add_sighting(hours(8));
  ASSERT_EQ(bridge.session_count(), 2u);
  bridge.add_sighting(hours(4));
  ASSERT_EQ(bridge.session_count(), 1u);
  EXPECT_EQ(bridge.total_session_length(), hours(8) + minutes(15));
}

TEST(OnlineSessionEstimator, MatchesBatchReconstructionUnderAnyOrder) {
  // The pinned invariant: after any permutation of any sighting multiset,
  // intervals() equals reconstruct_sessions() over the sorted list.
  Rng rng(4242);
  for (int trial = 0; trial < 50; ++trial) {
    const SimDuration offline_gap = hours(1 + trial % 6);
    std::vector<SimTime> sightings;
    const std::size_t n = 1 + static_cast<std::size_t>(rng.uniform_int(0, 40));
    for (std::size_t i = 0; i < n; ++i) {
      sightings.push_back(minutes(rng.uniform_int(0, 3000)));
    }
    const auto batch = [&] {
      std::vector<SimTime> sorted = sightings;
      std::sort(sorted.begin(), sorted.end());
      return reconstruct_sessions(sorted, offline_gap, minutes(15));
    }();

    rng.shuffle(sightings);
    OnlineSessionEstimator est(offline_gap, minutes(15));
    for (const SimTime t : sightings) est.add_sighting(t);

    const auto online = est.intervals();
    ASSERT_EQ(online.size(), batch.size()) << "trial " << trial;
    SimDuration batch_total = 0;
    for (std::size_t i = 0; i < online.size(); ++i) {
      EXPECT_EQ(online[i].start, batch[i].start) << "trial " << trial;
      EXPECT_EQ(online[i].end, batch[i].end) << "trial " << trial;
      batch_total += batch[i].length();
    }
    EXPECT_EQ(est.total_session_length(), batch_total) << "trial " << trial;
  }
}

TEST(OnlineSessionEstimator, OutOfOrderTelemetry) {
  OnlineSessionEstimator est;
  est.add_sighting(minutes(10));
  est.add_sighting(minutes(5));   // behind the newest
  est.add_sighting(minutes(10));  // ties the newest
  est.add_sighting(minutes(20));
  EXPECT_EQ(est.out_of_order_count(), 2u);
  EXPECT_EQ(est.sighting_count(), 4u);
}

TEST(OnlineSessionEstimator, NegativeQueryGapClampedToZero) {
  OnlineSessionEstimator est(hours(4), -minutes(15));
  est.add_sighting(hours(1));
  EXPECT_EQ(est.total_session_length(), 0);
  const auto intervals = est.intervals();
  ASSERT_EQ(intervals.size(), 1u);
  EXPECT_EQ(intervals[0].length(), 0);
}

// ------------------------------------------------------- classifier edges

class StreamingClassifierTest : public ::testing::Test {
 protected:
  StreamingClassifierTest() {
    const IspId hosting = geo_.add_isp("HostCo", IspType::HostingProvider, "FR");
    geo_.add_block(CidrBlock(IpAddress(20, 0, 0, 0), 8), hosting, "Paris");
    const IspId dsl = geo_.add_isp("DslNet", IspType::CommercialIsp, "ES");
    geo_.add_block(CidrBlock(IpAddress(30, 0, 0, 0), 8), dsl, "Madrid");

    Website portal;
    portal.domain = "megaseed.com";
    portal.type = BusinessType::PrivateBtPortal;
    portal.requires_registration = true;
    portal.has_private_tracker = true;
    websites_.add(portal);
  }

  static TorrentRecord make_record(TorrentId id, const std::string& username,
                                   std::optional<IpAddress> ip,
                                   const std::string& domain = "") {
    TorrentRecord record;
    record.portal_id = id;
    record.username = username;
    record.publisher_ip = ip;
    record.title = username + "-" + std::to_string(id);
    if (!domain.empty()) {
      record.textbox = "Get it at http://www." + domain + "/ now";
    }
    return record;
  }

  static const PublisherVerdict* find_verdict(const StreamingSnapshot& snap,
                                              const std::string& username) {
    for (const PublisherVerdict& v : snap.verdicts) {
      if (v.username == username) return &v;
    }
    return nullptr;
  }

  GeoDb geo_;
  WebsiteDirectory websites_;
};

TEST_F(StreamingClassifierTest, EmptySwarmTorrent) {
  // A discovered torrent whose tracker never returns a single peer must
  // still classify: zero estimated downloads, zero sessions, no flags.
  StreamingClassifier stream(geo_, websites_, {});
  stream.on_discover(make_record(0, "lonely", IpAddress(30, 0, 0, 1)), 0);
  const StreamingSnapshot snap = stream.round(hours(1));
  EXPECT_EQ(snap.torrents, 1u);
  EXPECT_EQ(snap.publishers, 1u);
  ASSERT_EQ(snap.torrent_estimates.size(), 1u);
  EXPECT_EQ(snap.torrent_estimates[0].est_distinct_downloaders, 0.0);
  EXPECT_EQ(snap.est_distinct_ips_global, 0.0);
  const PublisherVerdict* v = find_verdict(snap, "lonely");
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(v->est_downloads, 0.0);
  EXPECT_EQ(v->seeding_hours, 0.0);
  EXPECT_FALSE(v->fake);
  EXPECT_TRUE(v->top);  // only publisher in the cut
  EXPECT_FALSE(v->rate_flagged);
  EXPECT_FALSE(snap.to_text().empty());
}

TEST_F(StreamingClassifierTest, HooksForUnknownTorrentAreNoOps) {
  StreamingClassifier stream(geo_, websites_, {});
  stream.on_downloaders(42, std::vector<IpAddress>{IpAddress(30, 0, 0, 9)}, 0);
  stream.on_publisher_sighting(42, 0);
  stream.on_removal(42, 0);
  EXPECT_EQ(stream.updates(), 0u);
  EXPECT_EQ(stream.round(0).torrents, 0u);
}

TEST_F(StreamingClassifierTest, ModeratedMidCrawlIsProvisionalUntilBanConfirms) {
  StreamingClassifier stream(geo_, websites_, {});
  stream.on_discover(make_record(0, "victim", IpAddress(30, 0, 0, 2)), 0);
  stream.on_removal(0, hours(5));

  // Mid-crawl round: the removal stands in for the ban -> provisional fake.
  // Each snapshot is held in a local: find_verdict points into it.
  const StreamingSnapshot mid = stream.round(hours(6));
  const PublisherVerdict* rolling = find_verdict(mid, "victim");
  ASSERT_NE(rolling, nullptr);
  EXPECT_TRUE(rolling->fake);
  EXPECT_TRUE(rolling->provisional_fake);

  // Finalize without a user-page ban: the batch rule sees no banned account.
  const StreamingSnapshot unbanned = stream.finalize(hours(6));
  const PublisherVerdict* final_unbanned = find_verdict(unbanned, "victim");
  ASSERT_NE(final_unbanned, nullptr);
  EXPECT_FALSE(final_unbanned->fake);

  // The end-of-crawl user page confirms the ban: exact fake, not provisional.
  UserPage page;
  page.username = "victim";
  page.banned = true;
  stream.on_user_page("victim", page);
  const StreamingSnapshot banned = stream.finalize(hours(6));
  const PublisherVerdict* final_banned = find_verdict(banned, "victim");
  ASSERT_NE(final_banned, nullptr);
  EXPECT_TRUE(final_banned->fake);
  EXPECT_FALSE(final_banned->provisional_fake);
}

TEST_F(StreamingClassifierTest, FakeFarmRuleOverProvisionalRemovals) {
  // One IP, three usernames, two moderated away mid-crawl: the farm rule
  // (>=3 usernames, >=50% banned) condemns all three in rolling rounds and
  // none at finalize until real bans arrive.
  StreamingClassifier stream(geo_, websites_, {});
  const IpAddress farm_ip(20, 0, 0, 5);
  stream.on_discover(make_record(0, "farm_a", farm_ip), 0);
  stream.on_discover(make_record(1, "farm_b", farm_ip), 0);
  stream.on_discover(make_record(2, "farm_c", farm_ip), 0);
  stream.on_removal(0, hours(2));
  stream.on_removal(1, hours(3));

  const StreamingSnapshot rolling = stream.round(hours(4));
  const auto rolling_fakes = rolling.fakes();
  EXPECT_EQ(std::unordered_set<std::string>(rolling_fakes.begin(),
                                            rolling_fakes.end()),
            (std::unordered_set<std::string>{"farm_a", "farm_b", "farm_c"}));
  EXPECT_TRUE(rolling.top().empty());

  EXPECT_TRUE(stream.finalize(hours(4)).fakes().empty());

  UserPage banned;
  banned.banned = true;
  stream.on_user_page("farm_a", banned);
  stream.on_user_page("farm_b", banned);
  const StreamingSnapshot final_snap = stream.finalize(hours(4));
  EXPECT_EQ(final_snap.fakes().size(), 3u);
}

TEST_F(StreamingClassifierTest, SketchesFeedEstimatesAndRateFlag) {
  StreamingClassifier stream(geo_, websites_);
  const IpAddress publisher(20, 0, 0, 7);
  stream.on_discover(make_record(0, "noisy", publisher, "megaseed.com"), 0);

  std::vector<IpAddress> ips;
  for (std::uint32_t i = 0; i < 500; ++i) ips.push_back(IpAddress(0x1E000100u + i));
  stream.on_downloaders(0, ips, minutes(10));
  // 200 publisher sightings inside a sub-hour span (floored to 1 h): 200/h,
  // above the kAnnounceRateAlert of 120/h.
  static_assert(kAnnounceRateAlert < 200.0);
  for (int i = 0; i < 200; ++i) {
    stream.on_publisher_sighting(0, minutes(10 + i / 10));
  }

  const StreamingSnapshot snap = stream.round(hours(1));
  ASSERT_EQ(snap.torrent_estimates.size(), 1u);
  const double est = snap.torrent_estimates[0].est_distinct_downloaders;
  EXPECT_NEAR(est, 500.0, 3.0 * snap.hll_relative_error * 500.0 + 2.0);
  EXPECT_EQ(snap.announce_total, 700u);  // 500 downloaders + 200 sightings

  const PublisherVerdict* v = find_verdict(snap, "noisy");
  ASSERT_NE(v, nullptr);
  EXPECT_GE(v->announce_observations, 200u);
  EXPECT_TRUE(v->rate_flagged);
  EXPECT_TRUE(v->top);
  EXPECT_EQ(v->cls, BusinessClass::BtPortal);
  EXPECT_EQ(v->domain, "megaseed.com");
  EXPECT_TRUE(v->hosting_provider);  // 20.0.0.7 is the hosting block
  EXPECT_GT(v->seeding_hours, 0.0);
}

TEST_F(StreamingClassifierTest, PushOrderDoesNotChangeSnapshot) {
  // The streaming determinism contract in miniature: per-torrent state is
  // keyed by portal id and the shared count-min is commutative, so pushing
  // the same observations in another torrent order (as two vantages
  // interleaving into one classifier do) lands on the same snapshot.
  constexpr TorrentId kTorrents = 16;
  const auto record_for = [](TorrentId id) {
    return make_record(id, "pub" + std::to_string(id % 5),
                       IpAddress(30, 0, 0, 10 + id % 5),
                       id % 2 == 0 ? "megaseed.com" : "");
  };
  const auto push = [](StreamingClassifier& stream, TorrentId id) {
    std::vector<IpAddress> ips;
    for (std::uint32_t i = 0; i < 200; ++i) {
      ips.push_back(IpAddress(0x50000000u + static_cast<std::uint32_t>(id) * 4096 + i));
    }
    stream.on_downloaders(id, ips, hours(1 + id));
    for (int s = 0; s < 8; ++s) {
      stream.on_publisher_sighting(id, hours(1 + id) + minutes(15 * s));
    }
  };
  // A stride coprime with kTorrents visits every id once, out of order.
  const auto permuted = [](TorrentId i) { return (i * 5 + 3) % kTorrents; };

  StreamingClassifier in_order(geo_, websites_, {});
  for (TorrentId id = 0; id < kTorrents; ++id) {
    in_order.on_discover(record_for(id), 0);
    push(in_order, id);
  }
  StreamingClassifier out_of_order(geo_, websites_, {});
  for (TorrentId i = 0; i < kTorrents; ++i) {
    out_of_order.on_discover(record_for(permuted(i)), 0);
  }
  for (TorrentId i = kTorrents; i-- > 0;) push(out_of_order, permuted(i));

  EXPECT_EQ(in_order.updates(), out_of_order.updates());
  EXPECT_EQ(in_order.finalize(days(1)).to_text(),
            out_of_order.finalize(days(1)).to_text());
}

// ---------------------------------------------------------- convergence

/// Cut-down quick scenario: large enough to populate every verdict class
/// (fake farms, portal promoters, altruists), small enough for CI.
ScenarioConfig convergence_scenario(std::uint64_t seed) {
  ScenarioConfig config = ScenarioConfig::quick(seed);
  config.name = "stream-convergence";
  config.window = days(2);
  config.population.regular_publishers = 120;
  config.population.portal_owners = 3;
  config.population.other_web = 2;
  config.population.top_altruistic = 4;
  config.population.fake_farms = 3;
  config.population.fake_usernames = 12;
  return config;
}

constexpr std::size_t kTopN = 20;

StreamingConfig convergence_stream_config() {
  StreamingConfig config;
  config.top_n = kTopN;
  return config;
}

/// Asserts that the streaming finalize() snapshot reproduces the batch
/// pipeline (IdentityAnalysis + unsampled classify_top_publishers) run on
/// the dataset of the very crawl the classifier observed.
void expect_matches_batch(const StreamingSnapshot& snap, const Dataset& dataset,
                          const GeoDb& geo, const WebsiteDirectory& websites) {
  const CompactDataset compact = compact_dataset(dataset);
  const CompactDatasetView view = compact.view();
  const IdentityAnalysis identity(view, geo, kTopN);

  // Fake set, exactly.
  const auto fakes = snap.fakes();
  const std::unordered_set<std::string> streaming_fakes(fakes.begin(),
                                                        fakes.end());
  EXPECT_EQ(streaming_fakes, identity.fake_usernames());

  // Top cut: same members, same rank order.
  EXPECT_EQ(snap.top(), identity.top());

  // Per-publisher verdicts against batch stats and profiles.
  Rng rng(1);  // unused: sample_per_publisher = 0 disables sampling
  const auto batch =
      classify_top_publishers(view, identity, websites, 0, rng);
  std::unordered_map<std::string, const PublisherProfile*> profiles;
  for (const PublisherProfile& p : batch.profiles) profiles[p.username] = &p;

  std::size_t top_seen = 0;
  for (const PublisherVerdict& v : snap.verdicts) {
    const UsernameStats* stats = identity.find_username(v.username);
    ASSERT_NE(stats, nullptr) << v.username;
    EXPECT_EQ(v.content_count, stats->content_count) << v.username;
    EXPECT_EQ(v.fake, identity.is_fake(v.username)) << v.username;
    if (!v.top) continue;
    ++top_seen;
    EXPECT_EQ(v.hosting_provider, identity.top_hp().contains(v.username))
        << v.username;
    const auto it = profiles.find(v.username);
    ASSERT_NE(it, profiles.end()) << v.username;
    const PublisherProfile& p = *it->second;
    EXPECT_EQ(v.cls, p.cls) << v.username;
    EXPECT_EQ(v.domain, p.domain) << v.username;
    EXPECT_EQ(v.in_textbox, p.in_textbox) << v.username;
    EXPECT_EQ(v.in_filename, p.in_filename) << v.username;
    EXPECT_EQ(v.in_payload, p.in_payload) << v.username;
    EXPECT_EQ(v.dominant_language, p.dominant_language) << v.username;

    // Appendix-A session metrics: the online estimator is exact, so the
    // doubles match bit for bit (same integer totals, same fold order).
    const SeedingMetrics m = seeding_metrics(view, stats->torrents);
    EXPECT_DOUBLE_EQ(v.seeding_hours, m.avg_seeding_hours) << v.username;
    EXPECT_DOUBLE_EQ(v.aggregated_hours, m.aggregated_session_hours)
        << v.username;
    EXPECT_DOUBLE_EQ(v.parallel_torrents, m.avg_parallel_torrents)
        << v.username;
  }
  EXPECT_EQ(top_seen, identity.top().size());

  // Distinct-IP estimates: per torrent and global, inside the documented
  // band (3 sigma plus a +/-2 absolute floor for tiny swarms).
  ASSERT_EQ(snap.torrent_estimates.size(), dataset.torrent_count());
  for (std::size_t i = 0; i < dataset.torrent_count(); ++i) {
    EXPECT_EQ(snap.torrent_estimates[i].id, dataset.torrents[i].portal_id);
    const double exact = static_cast<double>(dataset.downloaders[i].size());
    EXPECT_NEAR(snap.torrent_estimates[i].est_distinct_downloaders, exact,
                3.0 * snap.hll_relative_error * exact + 2.0)
        << "torrent " << dataset.torrents[i].portal_id;
  }
  const double global_exact = static_cast<double>(view.distinct_ips_global());
  EXPECT_NEAR(snap.est_distinct_ips_global, global_exact,
              3.0 * snap.hll_relative_error * global_exact + 2.0);
}

class StreamingConvergenceTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    ecosystem_ = new Ecosystem(convergence_scenario(515));
    ecosystem_->build();
  }
  static void TearDownTestSuite() {
    delete ecosystem_;
    ecosystem_ = nullptr;
  }

  /// One tracker crawl with the streaming classifier attached; the batch
  /// pipeline consumes the returned dataset of the same crawl.
  static Dataset crawl_with(StreamingClassifier& stream) {
    const ScenarioConfig& config = ecosystem_->config();
    ecosystem_->tracker().reset_state(derive_seed(config.seed, 0x57AB1Eull));
    Crawler crawler(ecosystem_->portal(), ecosystem_->tracker(),
                    ecosystem_->network(), ecosystem_->geo(), config.crawler,
                    derive_seed(config.seed, 0xC4A71ull));
    crawler.set_observer(&stream);
    return crawler.crawl_window(0, config.window);
  }

  static Ecosystem* ecosystem_;
};

Ecosystem* StreamingConvergenceTest::ecosystem_ = nullptr;

TEST_F(StreamingConvergenceTest, TrackerVantageMatchesBatch) {
  StreamingClassifier stream(ecosystem_->geo(), ecosystem_->websites(),
                             convergence_stream_config());
  const Dataset dataset = crawl_with(stream);
  ASSERT_GT(dataset.torrent_count(), 0u);
  const StreamingSnapshot snap = stream.finalize(ecosystem_->config().window);
  EXPECT_EQ(snap.torrents, dataset.torrent_count());
  expect_matches_batch(snap, dataset, ecosystem_->geo(),
                       ecosystem_->websites());
  // The quick scenario plants fake farms and portal promoters; make sure
  // the convergence check exercised non-trivial verdicts.
  EXPECT_FALSE(snap.fakes().empty());
  EXPECT_FALSE(snap.top().empty());
}

TEST_F(StreamingConvergenceTest, DhtVantageMatchesBatch) {
  // The trackerless vantage: no publisher IPs, no sightings — verdicts
  // reduce to the username/ban/content signal, and the streaming layer
  // must match the batch analysis of the same DHT dataset.
  const ScenarioConfig& config = ecosystem_->config();
  const auto overlay =
      ecosystem_->build_dht_overlay(config.window + config.dht_crawler.grace);
  DhtCrawler crawler(ecosystem_->portal(), *overlay, config.dht_crawler,
                     derive_seed(config.seed, 0xD47ull));
  StreamingClassifier stream(ecosystem_->geo(), ecosystem_->websites(),
                             convergence_stream_config());
  crawler.set_observer(&stream);
  const Dataset dataset = crawler.crawl_window(0, config.window);
  ASSERT_GT(dataset.torrent_count(), 0u);
  const StreamingSnapshot snap = stream.finalize(config.window);
  EXPECT_EQ(snap.torrents, dataset.torrent_count());
  expect_matches_batch(snap, dataset, ecosystem_->geo(),
                       ecosystem_->websites());
}

}  // namespace
}  // namespace btpub
