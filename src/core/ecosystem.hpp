// ecosystem.hpp — assembles and runs one complete simulated BitTorrent
// ecosystem: synthetic Internet (GeoIP + ISPs), portal, tracker, publisher
// population with websites, per-torrent swarms, moderation — then runs the
// measurement crawler over it.
//
// The ecosystem keeps generator-side ground truth (who published what,
// true seeding sessions, true download counts) strictly separate from the
// crawler's Dataset; validation benches compare the two.
#pragma once

#include <memory>
#include <vector>

#include "core/scenario.hpp"
#include "crawler/dataset.hpp"
#include "dht/overlay.hpp"
#include "geo/isp_catalog.hpp"
#include "portal/portal.hpp"
#include "publisher/population.hpp"
#include "swarm/generator.hpp"
#include "swarm/network.hpp"
#include "tracker/tracker.hpp"
#include "websim/appraisal.hpp"

namespace btpub {

/// What the build actually did — the observability hook for the safety
/// clamps and the parallel engine (benches and tests read it; nothing in
/// the generated world depends on it).
struct BuildStats {
  /// Publishers whose historical backfill hit the event-cap clamp, and how
  /// many events the clamp dropped in total. Non-zero means the Table-4
  /// longitudinal view under-counts those publishers' pre-window record.
  std::size_t backfill_clamped_publishers = 0;
  std::size_t backfill_clamped_events = 0;
  /// Publication events generated inside the window.
  std::size_t publication_events = 0;
  /// Resolved worker-thread count the build ran with.
  std::size_t build_threads = 1;
  /// Per-phase wall-clock seconds — the Amdahl diagnosis. population and
  /// backfill run before publication generation; draw/prepare/commit are
  /// its three phases. Only prepare scales with build_threads; the others
  /// are serial, so (total - prepare) / total bounds the achievable build
  /// speedup.
  double seconds_population = 0.0;  ///< population + component setup (serial)
  double seconds_backfill = 0.0;    ///< historical user-page backfill (serial)
  double seconds_draw = 0.0;        ///< publication event drawing (serial)
  double seconds_prepare = 0.0;     ///< per-event prepare fan-out (parallel)
  double seconds_commit = 0.0;      ///< in-order commit replay (serial)
};

/// Generator-side truth for one published torrent.
struct TorrentTruth {
  TorrentId portal_id = kInvalidTorrent;
  PublisherId publisher = 0;
  PublisherClass publisher_class = PublisherClass::Regular;
  IpAddress publisher_ip{};  // the address used for this publication
  bool publisher_nat = false;
  bool cross_posted = false;
  SimTime removal_time = -1;  // -1: never moderated away
  std::size_t true_downloads = 0;
  std::vector<Interval> seed_sessions;
};

class Ecosystem {
 public:
  explicit Ecosystem(ScenarioConfig config);

  /// Generates the world: population, listings, swarms, moderation.
  /// Must be called exactly once, before crawl().
  void build();

  /// Runs the measurement crawler over the window; deterministic.
  Dataset crawl();

  /// Runs the trackerless (DHT) vantage over the same window;
  /// deterministic and byte-identical across repeated calls — every call
  /// rebuilds a fresh overlay from the generated swarms.
  Dataset dht_crawl();

  /// Builds the Mainline DHT overlay the swarms populate: connectable
  /// (non-NAT) peers join as nodes for the union of their sessions, every
  /// real session announce_peer-s periodically (NAT peers announce without
  /// serving), and spoofed decoys plus fake-farm publishers never take
  /// part — their absence is the cross-check signature. Nothing past
  /// `horizon` is scheduled. The overlay seed derives from the scenario
  /// seed alone, so this never perturbs the generator's RNG streams.
  std::unique_ptr<dht::DhtOverlay> build_dht_overlay(SimTime horizon) const;

  // --- components (valid after build()) ---
  const ScenarioConfig& config() const noexcept { return config_; }
  const GeoDb& geo() const noexcept { return catalog_.db(); }
  const Portal& portal() const noexcept { return portal_; }
  Portal& portal() noexcept { return portal_; }
  Tracker& tracker() noexcept { return *tracker_; }
  SwarmNetwork& network() noexcept { return network_; }
  const Population& population() const noexcept { return population_; }
  const WebsiteDirectory& websites() const noexcept { return population_.websites; }
  const AppraisalPanel& appraisal_panel() const noexcept { return panel_; }

  // --- ground truth ---
  const std::vector<TorrentTruth>& truths() const noexcept { return truths_; }
  const TorrentTruth& truth(TorrentId id) const { return truths_.at(id); }
  const Swarm& swarm_of(TorrentId id) const { return *swarms_.at(id); }
  std::size_t torrent_count() const noexcept { return truths_.size(); }
  const BuildStats& build_stats() const noexcept { return build_stats_; }

 private:
  /// One publish action drawn in phase 1 of generate_publications.
  struct PublicationEvent {
    SimTime at;
    PublisherId publisher;
    /// The publisher's zero-based publication index in event order.
    std::uint32_t ordinal;
  };

  /// Everything prepare_publication produces off the serial path; committed
  /// in event order by commit_publication.
  struct PublicationDraft {
    PublishRequest request;
    SimTime removal = -1;  // -1: never moderated away
    IpAddress publisher_ip{};
    bool publisher_nat = false;
    bool cross_posted = false;
    std::vector<Interval> seed_sessions;
    std::unique_ptr<Swarm> swarm;
  };

  void backfill_history();
  /// Three phases: serial event drawing (per-publisher substreams), a
  /// parallel prepare fan-out over config_.threads workers (per-event
  /// substreams; byte-identical for any thread count), and a serial
  /// in-event-order commit into portal/tracker/network/truths.
  void generate_publications();
  /// Heavy per-publication work: metainfo hashing, swarm generation,
  /// seed-session planning, decoy injection, finalize. Pure function of
  /// (event, index) given the frozen population and config — draws only
  /// from derive_seed(seed, tag, index) substreams. Thread-safe.
  PublicationDraft prepare_publication(const PublicationEvent& event,
                                       std::size_t index) const;
  /// Serial registration of a prepared publication; assigns the portal id.
  TorrentId commit_publication(const PublicationEvent& event,
                               PublicationDraft& draft);

  ScenarioConfig config_;
  Rng rng_;
  IspCatalog catalog_;
  Portal portal_;
  std::unique_ptr<Tracker> tracker_;
  SwarmNetwork network_;
  Population population_;
  std::unique_ptr<ConsumerPool> consumers_;
  std::unique_ptr<SwarmGenerator> swarm_generator_;
  AppraisalPanel panel_;
  std::vector<std::unique_ptr<Swarm>> swarms_;  // indexed by TorrentId
  std::vector<TorrentTruth> truths_;            // indexed by TorrentId
  BuildStats build_stats_;
  bool built_ = false;
};

}  // namespace btpub
