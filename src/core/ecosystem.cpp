#include "core/ecosystem.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <limits>
#include <map>
#include <stdexcept>
#include <unordered_map>

#include "crawler/crawler.hpp"
#include "crawler/dht_crawler.hpp"
#include "torrent/metainfo.hpp"
#include "util/parallel.hpp"
#include "util/stats.hpp"

namespace btpub {
namespace {

/// Wall-clock seconds since `start` — the BuildStats phase clock.
double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
      .count();
}

/// BEP 5 clients refresh their announce well inside the peer store's TTL
/// (dht::PeerStore::kPeerTtl); this is the simulated cadence.
constexpr SimDuration kDhtReannounce = minutes(30);
static_assert(kDhtReannounce < dht::PeerStore::kPeerTtl);

/// Moderation of fake content: a listing is removed after an exponential
/// delay of this mean, never sooner than the floor.
constexpr SimDuration kModerationMeanDelay = hours(30);
constexpr SimDuration kModerationMinDelay = hours(2);
static_assert(kModerationMeanDelay > kModerationMinDelay);

/// Cross-posted content already lives on another portal: its swarm was
/// born this long before the listing, drawn uniformly.
constexpr SimDuration kCrossPostLeadMin = hours(12);
constexpr SimDuration kCrossPostLeadMax = hours(72);
static_assert(kCrossPostLeadMax >= kCrossPostLeadMin);

/// Safety clamp on one publisher's backfilled history (a runaway
/// historical_rate * lifetime product would otherwise stall the build).
/// Hitting it is recorded in BuildStats and warned about — a silently
/// truncated history would skew the Table-4 longitudinal study.
constexpr std::size_t kBackfillEventCap = 200000;

// Substream tags: every random stream the ecosystem owns is keyed off the
// scenario seed through derive_seed with one of these, so no two phases
// can correlate and no phase's draw count perturbs another. The spoof,
// overlay and DHT-crawl tags predate this scheme and are kept verbatim.
constexpr std::uint64_t kTagPublicationEvents = 0x9E17ull;  ///< + publisher id
constexpr std::uint64_t kTagPublication = 0x6B01ull;        ///< + event index
constexpr std::uint64_t kTagSpoofedDecoys = 0x5F00Full;     ///< + event index
constexpr std::uint64_t kTagDhtOverlay = 0xD47ull;
constexpr std::uint64_t kTagDhtCrawl = 0xDC13ull;
constexpr std::uint64_t kTagTrackerCrawlState = 0x7214CBull;
constexpr std::uint64_t kTagCrawler = 0xC4A37E5ull;

}  // namespace

Ecosystem::Ecosystem(ScenarioConfig config)
    : config_(std::move(config)),
      rng_(config_.seed),
      catalog_(IspCatalog::standard()),
      portal_("the-sim-bay"),
      panel_(AppraisalPanel::standard()) {}

void Ecosystem::build() {
  if (built_) throw std::logic_error("Ecosystem::build called twice");
  built_ = true;

  auto clock = std::chrono::steady_clock::now();
  Rng population_rng = rng_.fork();
  population_ = build_population(config_.population, catalog_, population_rng);

  tracker_ = std::make_unique<Tracker>(config_.tracker, rng_.fork());

  consumers_ = std::make_unique<ConsumerPool>(catalog_);
  for (const auto& [endpoint, weight] : population_.sticky_consumers) {
    consumers_->add_sticky(endpoint, weight);
  }
  swarm_generator_ = std::make_unique<SwarmGenerator>(*consumers_);
  build_stats_.seconds_population = seconds_since(clock);

  clock = std::chrono::steady_clock::now();
  backfill_history();
  build_stats_.seconds_backfill = seconds_since(clock);

  generate_publications();
}

void Ecosystem::backfill_history() {
  // Longitudinal history (§5.2): publishers existed before the window; the
  // portal's user pages carry their full record. Fake accounts need no
  // history — their pages are purged after detection anyway.
  const double window_days = to_days(config_.window);
  for (const Publisher& p : population_.publishers) {
    if (p.is_fake_farm()) continue;
    const double days_before = p.lifetime_days - window_days;
    if (days_before <= 0.0) continue;
    const double mean = p.historical_rate * days_before;
    const std::size_t drawn = sample_poisson(mean, rng_);
    const std::size_t n = std::min(drawn, kBackfillEventCap);
    if (drawn > n) {
      ++build_stats_.backfill_clamped_publishers;
      build_stats_.backfill_clamped_events += drawn - n;
      std::fprintf(stderr,
                   "[btpub] warning: publisher %u backfill clamped "
                   "(%zu of %zu historical events kept)\n",
                   p.id, n, drawn);
    }
    std::vector<SimTime> times;
    times.reserve(n + 1);
    for (std::size_t i = 0; i < n; ++i) {
      times.push_back(-static_cast<SimTime>(rng_.uniform() * days_before *
                                            static_cast<double>(kDay)));
    }
    // Pin the very first appearance so the lifetime is exact.
    times.push_back(-static_cast<SimTime>(days_before * static_cast<double>(kDay)));
    std::sort(times.begin(), times.end());
    portal_.record_history(p.usernames.front(), times);
  }
}

void Ecosystem::generate_publications() {
  const std::size_t n_threads = resolve_threads(config_.threads);
  build_stats_.build_threads = n_threads;

  // Phase 1 — serial, cheap: every publisher draws from its own
  // derive_seed substream, so its event count and times depend on nothing
  // but (scenario seed, publisher id).
  auto clock = std::chrono::steady_clock::now();
  std::vector<PublicationEvent> events;
  const double window_days = to_days(config_.window);
  for (const Publisher& publisher : population_.publishers) {
    Rng event_rng(derive_seed(config_.seed, kTagPublicationEvents,
                              static_cast<std::uint64_t>(publisher.id)));
    const double mean = publisher.window_rate * window_days;
    const std::size_t n = sample_poisson(mean, event_rng);
    for (std::size_t i = 0; i < n; ++i) {
      const SimTime at = static_cast<SimTime>(
          event_rng.uniform() * static_cast<double>(config_.window));
      events.push_back(PublicationEvent{at, publisher.id, 0});
    }
  }
  std::sort(events.begin(), events.end(),
            [](const PublicationEvent& a, const PublicationEvent& b) {
              if (a.at != b.at) return a.at < b.at;
              return a.publisher < b.publisher;
            });
  // The per-publisher publication ordinal (IP rotation, username cycling)
  // is a function of the sorted order, fixed before any parallel work.
  std::unordered_map<PublisherId, std::uint32_t> ordinals;
  for (PublicationEvent& event : events) {
    event.ordinal = ordinals[event.publisher]++;
  }
  build_stats_.publication_events = events.size();
  build_stats_.seconds_draw = seconds_since(clock);

  // Phase 2 — parallel, heavy: prepare every publication (metainfo
  // hashing, swarm generation, seed-session planning, decoy injection,
  // finalize). prepare_publication is a pure function of (event, index)
  // given the frozen population/config, drawing only from the event's own
  // substream — every draft lands in its own slot, so completion order is
  // irrelevant and any thread count yields identical drafts.
  clock = std::chrono::steady_clock::now();
  std::vector<PublicationDraft> drafts(events.size());
  parallel_for(events.size(), n_threads,
               [this, &events, &drafts](std::size_t i, std::size_t) {
                 drafts[i] = prepare_publication(events[i], i);
               });
  build_stats_.seconds_prepare = seconds_since(clock);

  // Phase 3 — serial, cheap: commit in event order. Portal ids, tracker
  // registration and the truth table are assigned here, so they come out
  // exactly as a sequential build would produce them.
  clock = std::chrono::steady_clock::now();
  swarms_.reserve(events.size());
  truths_.reserve(events.size());
  for (std::size_t i = 0; i < events.size(); ++i) {
    commit_publication(events[i], drafts[i]);
  }
  build_stats_.seconds_commit = seconds_since(clock);
}

Ecosystem::PublicationDraft Ecosystem::prepare_publication(
    const PublicationEvent& event, std::size_t index) const {
  const Publisher& publisher = population_.by_id(event.publisher);
  const SimTime when = event.at;
  Rng rng(derive_seed(config_.seed, kTagPublication,
                      static_cast<std::uint64_t>(index)));

  PublicationDraft draft;
  PublishedWork work = publisher.make_work(when, event.ordinal, rng);

  Metainfo metainfo = Metainfo::make(
      std::string(kTrackerAnnounceUrl), work.title, work.files,
      /*piece_length=*/std::nullopt,  // the creator rule
      /*salt=*/std::to_string(index) + "|" + work.username);

  draft.request.title = work.title;
  draft.request.category = work.category;
  draft.request.language = work.language;
  draft.request.username = work.username;
  draft.request.textbox = work.textbox;
  draft.request.infohash = metainfo.infohash();
  draft.request.size_bytes = metainfo.total_size();
  draft.request.payload = work.payload;

  // Moderation: fake content gets spotted and removed after a delay —
  // unless it slips through entirely.
  draft.removal = -1;
  if (work.payload != PayloadKind::Genuine &&
      !rng.chance(config_.moderation_miss_probability)) {
    const auto delay = std::max<SimDuration>(
        kModerationMinDelay,
        static_cast<SimDuration>(
            rng.exponential(static_cast<double>(kModerationMeanDelay))));
    draft.removal = when + delay;
  }

  // Swarm birth: cross-posted content already lives on another portal.
  SimTime birth = when;
  if (work.cross_posted) {
    birth = when - static_cast<SimDuration>(
                       rng.uniform(static_cast<double>(kCrossPostLeadMin),
                                    static_cast<double>(kCrossPostLeadMax)));
  }

  const SimTime hard_end = config_.window + days(2);
  SwarmSpec spec;
  spec.birth = birth;
  spec.expected_downloads = work.expected_downloads;
  spec.arrivals_end = draft.removal >= 0
                          ? std::min<SimTime>(draft.removal, config_.window)
                          : config_.window;
  spec.fake = work.payload != PayloadKind::Genuine;

  auto swarm = std::make_unique<Swarm>(metainfo.infohash(), metainfo.piece_count(),
                                       birth);
  draft.request.torrent = std::move(metainfo).file();  // metainfo's last use
  swarm_generator_->generate(*swarm, spec, rng);

  // When does the k-th non-publisher seeder appear? (the publisher's
  // leave condition)
  constexpr SimTime kNever = std::numeric_limits<SimTime>::max();
  SimTime enough_seeders_at = kNever;
  const std::uint32_t k = publisher.seeding.leave_after_other_seeders;
  if (k > 0 && !spec.fake) {
    std::vector<SimTime> completions;
    for (const PeerSession& s : swarm->sessions()) {
      if (s.complete_at < s.depart) completions.push_back(s.complete_at);
    }
    if (completions.size() >= k) {
      std::nth_element(completions.begin(), completions.begin() + (k - 1),
                       completions.end());
      enough_seeders_at = completions[k - 1];
    }
  }

  draft.seed_sessions =
      plan_seed_sessions(publisher.seeding, birth, enough_seeders_at,
                         draft.removal, hard_end, publisher.online_start, rng);
  for (const Interval& session : draft.seed_sessions) {
    PeerSession s;
    s.endpoint = work.endpoint;
    s.arrive = session.start;
    s.depart = session.end;
    s.complete_at = session.start;  // the publisher always holds all pieces
    s.nat = work.endpoint_nat;
    s.is_publisher = true;
    swarm->add_session(s);
  }

  // Decoy injection: a fake-farm announcer claims extra "seeders" at
  // addresses it does not hold — sequential IPs from a hosting-style
  // block, the pattern the paper's spoofed swarms showed. The tracker
  // believes them; probes and the DHT (source-address storage) never see
  // them. Drawn from an own substream so enabling the knob leaves every
  // other draw untouched.
  if (publisher.is_fake_farm() && config_.fake_spoofed_peers > 0) {
    Rng spoof_rng(derive_seed(config_.seed, kTagSpoofedDecoys,
                              static_cast<std::uint64_t>(index)));
    const SimTime stop = draft.removal >= 0 ? draft.removal : hard_end;
    const auto base = static_cast<std::uint32_t>(
        spoof_rng.uniform_int(0x0B000000, 0xDF000000));
    for (std::size_t i = 0; i < config_.fake_spoofed_peers; ++i) {
      PeerSession s;
      s.endpoint = Endpoint{IpAddress(base + static_cast<std::uint32_t>(i)),
                            static_cast<std::uint16_t>(
                                6881 + spoof_rng.uniform_int(0, 8))};
      s.arrive = birth + static_cast<SimDuration>(spoof_rng.uniform_int(
                             0, static_cast<std::int64_t>(minutes(30))));
      s.depart = std::max<SimTime>(stop, s.arrive + hours(1));
      s.complete_at = s.arrive;  // decoys pose as seeders
      s.nat = true;              // unreachable, like any address not held
      s.spoofed = true;
      swarm->add_session(s);
    }
  }

  swarm->finalize();

  draft.publisher_ip = work.endpoint.ip;
  draft.publisher_nat = work.endpoint_nat;
  draft.cross_posted = work.cross_posted;
  draft.swarm = std::move(swarm);
  return draft;
}

TorrentId Ecosystem::commit_publication(const PublicationEvent& event,
                                        PublicationDraft& draft) {
  const Publisher& publisher = population_.by_id(event.publisher);
  const TorrentId id = portal_.publish(std::move(draft.request), event.at);
  if (draft.removal >= 0) portal_.moderate_remove(id, draft.removal);

  tracker_->host_swarm(*draft.swarm);
  network_.register_swarm(*draft.swarm);

  TorrentTruth truth;
  truth.portal_id = id;
  truth.publisher = publisher.id;
  truth.publisher_class = publisher.cls;
  truth.publisher_ip = draft.publisher_ip;
  truth.publisher_nat = draft.publisher_nat;
  truth.cross_posted = draft.cross_posted;
  truth.removal_time = draft.removal;
  truth.true_downloads = draft.swarm->distinct_downloader_ips();
  truth.seed_sessions = std::move(draft.seed_sessions);
  truths_.push_back(std::move(truth));
  swarms_.push_back(std::move(draft.swarm));
  return id;
}

std::unique_ptr<dht::DhtOverlay> Ecosystem::build_dht_overlay(
    SimTime horizon) const {
  if (!built_) throw std::logic_error("Ecosystem::build_dht_overlay before build");
  auto overlay =
      std::make_unique<dht::DhtOverlay>(derive_seed(config_.seed, kTagDhtOverlay));
  dht::DhtOverlay* net = overlay.get();

  // Node lifetime = union of an endpoint's connectable sessions across all
  // swarms (a client runs one DHT node however many torrents it is on).
  // NAT peers never serve as nodes; spoofed decoys do not exist at all.
  std::map<Endpoint, std::vector<Interval>> lifetimes;
  for (const auto& swarm : swarms_) {
    for (const PeerSession& s : swarm->sessions()) {
      if (s.nat || s.spoofed) continue;
      lifetimes[s.endpoint].push_back(
          Interval{std::max<SimTime>(s.arrive, 0), std::min(s.depart, horizon)});
    }
  }
  for (auto& [endpoint, intervals] : lifetimes) {
    std::sort(intervals.begin(), intervals.end(),
              [](const Interval& a, const Interval& b) {
                if (a.start != b.start) return a.start < b.start;
                return a.end < b.end;
              });
    Interval merged = intervals.front();
    auto emit = [net, endpoint = endpoint](const Interval& iv) {
      if (iv.end <= iv.start) return;
      dht::OverlayEvent join;
      join.kind = dht::OverlayEvent::Kind::NodeJoin;
      join.endpoint = endpoint;
      net->events().schedule(iv.start, join);
      dht::OverlayEvent leave;
      leave.kind = dht::OverlayEvent::Kind::NodeLeave;
      leave.endpoint = endpoint;
      net->events().schedule(iv.end, leave);
    };
    for (std::size_t i = 1; i < intervals.size(); ++i) {
      if (intervals[i].start <= merged.end) {
        merged.end = std::max(merged.end, intervals[i].end);
      } else {
        emit(merged);
        merged = intervals[i];
      }
    }
    emit(merged);
  }

  // Announces: every real session announce_peer-s on arrival and every
  // kDhtReannounce until departure. NAT peers announce too — the node they
  // hit stores the datagram's source address, exactly like a tracker sees
  // their IP. Fake-farm publishers run tracker-only announcer software;
  // their absence from the DHT is the signature the cross-check hunts.
  // One lazy cursor per session: the queue re-arms the next occurrence
  // when the previous one fires, so pending memory is O(live sessions),
  // not O(sessions x window/kDhtReannounce). Cursors are scheduled after
  // the joins, so at equal timestamps (FIFO within a timestamp) a node's
  // join precedes its first announce.
  for (std::size_t i = 0; i < swarms_.size(); ++i) {
    const Sha1Digest infohash = swarms_[i]->infohash();
    const bool fake_publisher = is_fake(truths_[i].publisher_class);
    for (const PeerSession& s : swarms_[i]->sessions()) {
      if (s.spoofed) continue;
      if (s.is_publisher && fake_publisher) continue;
      const SimTime stop = std::min(s.depart, horizon);
      SimTime at = s.arrive;
      if (at < 0) {
        // First in-window announce of a pre-window arrival: ceiling
        // division keeps the session's 30-minute cadence, so an arrival
        // at exactly -kDhtReannounce announces at 0, not kDhtReannounce.
        at += ((-at + kDhtReannounce - 1) / kDhtReannounce) * kDhtReannounce;
      }
      if (at >= stop) continue;
      dht::OverlayEvent announce;
      announce.kind = dht::OverlayEvent::Kind::Announce;
      announce.endpoint = s.endpoint;
      announce.infohash = infohash;
      announce.every = kDhtReannounce;
      announce.until = stop;
      net->events().schedule(at, announce);
    }
  }
  return overlay;
}

Dataset Ecosystem::dht_crawl() {
  if (!built_) throw std::logic_error("Ecosystem::dht_crawl before build");
  // A fresh overlay per crawl: repeated dht_crawl() calls replay the same
  // schedule from scratch and return byte-identical datasets.
  const auto overlay = build_dht_overlay(config_.window + config_.dht_crawler.grace);
  DhtCrawler crawler(portal_, *overlay, config_.dht_crawler,
                     derive_seed(config_.seed, kTagDhtCrawl));
  return crawler.crawl_window(0, config_.window);
}

Dataset Ecosystem::crawl() {
  if (!built_) throw std::logic_error("Ecosystem::crawl before build");
  // Fixed derive_seed substreams keyed off the scenario seed keep repeated
  // crawls of the same ecosystem identical — and structurally uncorrelated
  // with every build substream (the old XOR-offset seeds could in
  // principle collide with a derive_seed output). The tracker's
  // client-side state (rate limits, sampling key) is reset so a crawl
  // never observes a previous one.
  tracker_->reset_state(derive_seed(config_.seed, kTagTrackerCrawlState));
  Crawler crawler(portal_, *tracker_, network_, geo(), config_.crawler,
                  derive_seed(config_.seed, kTagCrawler));
  return crawler.crawl_window(0, config_.window);
}

}  // namespace btpub
