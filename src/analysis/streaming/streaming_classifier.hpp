// streaming_classifier.hpp — the real-time publisher classifier (§4.5).
//
// The batch pipeline answers "fake / top / altruistic?" only after a crawl
// has finished. This class is the crawl-time equivalent: it implements
// CrawlObserver, consumes the observation stream from either vantage (or
// both) while crawling, and can emit provisional verdicts at every poll
// round.
//
// It keeps two kinds of state per monitored torrent:
//   * Exact observations: the discovered TorrentRecord, the publisher
//     sighting times, the moderation-removal flag and the monitoring span.
//     Every verdict is read off the batch passes run over these: a
//     snapshot rebuilds them as a CompactDataset (slots in portal-id
//     order, one user page per username) and runs IdentityAnalysis,
//     unsampled classify_top_publishers and seeding_metrics over its view.
//     The fake/top/HP/business/language/session rules thus live only in
//     analysis/groups, classify and session.
//   * Sketches for the unbounded per-IP populations: a HyperLogLog of
//     distinct downloader IPs per torrent, and one shared count-min sketch
//     of per-IP announce rates whose publisher IPs above the alert
//     threshold are rate-flagged (decoy-flood posture).
//
// finalize() therefore equals the batch passes over the same crawl's
// dataset, in any push order (pinned by streaming_test and perfbench's
// simulate_quick gate); only the distinct-IP counts are estimates, inside
// the sketch's documented error bound.
#pragma once

#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "analysis/classify.hpp"
#include "analysis/streaming/sketch.hpp"
#include "crawler/observer.hpp"
#include "geo/geo_db.hpp"
#include "websim/website.hpp"

namespace btpub {

/// HyperLogLog precision: 2^p registers per torrent (p=12 -> 4 KiB, ~1.6%
/// standard error).
inline constexpr int kHllPrecision = 12;
/// Count-min geometry for the per-IP announce-rate sketch.
inline constexpr std::size_t kCmsWidth = 4096;
inline constexpr std::size_t kCmsDepth = 4;
/// Salt folded into every sketch hash (determinism: same salt, same
/// registers).
inline constexpr std::uint64_t kSketchSalt = 0x5eed5eedULL;
/// Provisional fake signal: a publisher IP observed more often than this
/// many times per hour of its monitoring span is rate-flagged.
inline constexpr double kAnnounceRateAlert = 120.0;

// The fake-farm thresholds are the batch rule's (FakeDetectionConfig{}),
// and the session parameters Appendix A's (analysis/session.hpp).
struct StreamingConfig {
  /// Size of the "top publishers" cut (the paper's 100).
  std::size_t top_n = 100;
};

/// One publisher's rolling verdict.
struct PublisherVerdict {
  std::string username;
  std::size_t content_count = 0;
  /// Sum over torrents of HLL-estimated distinct downloader IPs (the
  /// streaming stand-in for the batch download_count).
  double est_downloads = 0.0;
  bool fake = false;
  /// True when the fake call came only from the mid-crawl moderation
  /// signal (provisional rounds), not yet from the user-page ban.
  bool provisional_fake = false;
  bool top = false;
  bool hosting_provider = false;  // Top-HP vs Top-CI split (top only)
  /// Business classification (top publishers only; Altruistic otherwise).
  BusinessClass cls = BusinessClass::Altruistic;
  std::string domain;
  bool in_textbox = false, in_filename = false, in_payload = false;
  std::optional<Language> dominant_language;
  /// Appendix-A seeding metrics (seeding_metrics; tracker vantage only).
  double seeding_hours = 0.0;       // mean per-torrent session time
  double aggregated_hours = 0.0;    // union across torrents
  double parallel_torrents = 0.0;
  /// Count-min announce observations of the busiest publisher IP, and the
  /// rate flag derived from it.
  std::uint64_t announce_observations = 0;
  bool rate_flagged = false;
};

/// What one poll round (or finalize) reports.
struct StreamingSnapshot {
  SimTime at = 0;
  std::size_t torrents = 0;
  std::size_t publishers = 0;
  /// Verdicts sorted like the batch ranking: content desc, first portal id
  /// asc. Covers every observed username.
  std::vector<PublisherVerdict> verdicts;
  /// Per-torrent HLL estimates (portal-id ascending).
  struct TorrentEstimate {
    TorrentId id = kInvalidTorrent;
    double est_distinct_downloaders = 0.0;
  };
  std::vector<TorrentEstimate> torrent_estimates;
  /// Merged-HLL estimate of distinct downloader IPs across all torrents.
  double est_distinct_ips_global = 0.0;
  /// One standard error of every HLL estimate, as a fraction.
  double hll_relative_error = 0.0;
  /// Count-min over-estimation bound: err <= cms_epsilon * announce_total.
  double cms_epsilon = 0.0;
  std::uint64_t announce_total = 0;

  /// The members of the top cut, in rank order.
  std::vector<std::string> top() const;
  /// Usernames currently called fake.
  std::vector<std::string> fakes() const;
  /// Canonical multi-line rendering (stable across runs and push orders —
  /// the byte-identity oracle, also what live_monitor prints).
  std::string to_text() const;
};

class StreamingClassifier : public CrawlObserver {
 public:
  StreamingClassifier(const GeoDb& geo, const WebsiteDirectory& websites,
                      StreamingConfig config = {});
  // Holds a pointer into its own slots (see cached_slot_).
  StreamingClassifier(const StreamingClassifier&) = delete;
  StreamingClassifier& operator=(const StreamingClassifier&) = delete;

  // CrawlObserver (see observer.hpp for the contract).
  void on_discover(const TorrentRecord& record, SimTime now) override;
  void on_downloaders(TorrentId id, std::span<const IpAddress> ips,
                      SimTime now) override;
  void on_publisher_sighting(TorrentId id, SimTime now) override;
  void on_removal(TorrentId id, SimTime now) override;
  void on_user_page(const std::string& username, const UserPage& page) override;

  /// Provisional verdicts mid-crawl: moderation removals observed so far
  /// stand in for the user-page bans that only exist at crawl end, and
  /// rate flags feed the fake signal.
  StreamingSnapshot round(SimTime now) const { return snapshot(now, true); }
  /// End-of-crawl verdicts: exact batch semantics (user-page bans only).
  StreamingSnapshot finalize(SimTime now = 0) const {
    return snapshot(now, false);
  }

  std::uint64_t updates() const noexcept { return updates_; }

 private:
  /// Per-torrent state: the exact observations and the downloader sketch.
  struct TorrentSlot {
    TorrentRecord record;
    std::vector<SimTime> sightings;  // arrival order
    bool removed = false;
    SimTime discovered_at = 0;
    SimTime last_observation = 0;
    HyperLogLog downloaders{kHllPrecision, kSketchSalt};
  };

  TorrentSlot* find_slot(TorrentId id);
  StreamingSnapshot snapshot(SimTime now, bool provisional) const;

  const GeoDb* geo_;
  const WebsiteDirectory* websites_;
  StreamingConfig config_;

  /// Keyed by portal id, so iteration is the batch dataset order.
  std::map<TorrentId, TorrentSlot> slots_;
  /// The slot a hook last resolved. A crawler sends each torrent's hooks in
  /// a run, so a run looks its slot up once; map nodes never move, and
  /// slots are never erased, so the pointer stays valid.
  TorrentId cached_id_ = kInvalidTorrent;
  TorrentSlot* cached_slot_ = nullptr;
  /// Confirmed ban per user page received.
  std::map<std::string, bool, std::less<>> user_banned_;

  CountMinSketch announce_rates_;
  std::uint64_t updates_ = 0;
};

}  // namespace btpub
