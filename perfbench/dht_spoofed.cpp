// dht_spoofed — the trackerless vantage on ScenarioConfig::spoofed, with
// the window cut to 2 days. Setup builds the world and runs the tracker
// crawl; the job builds the DHT overlay, crawls it and cross-checks the
// two vantages. The dht and sim layers run in no other workload.
#include "core/ecosystem.hpp"
#include "crawler/crawler.hpp"
#include "crawler/cross_check.hpp"
#include "crawler/dht_crawler.hpp"
#include "common.hpp"
#include "publisher/profile.hpp"

namespace perfbench {

using namespace btpub;

namespace {

/// The world is the preset's canonical one; --seed drives both crawlers'
/// draws (see simulate_quick.cpp for why the world seed is pinned).
constexpr std::uint64_t kWorldSeed = 42;
constexpr std::uint64_t kTagTrackerState = 0x70b07ac4;
constexpr std::uint64_t kTagCrawler = 0x70b0c4a7;
constexpr std::uint64_t kTagDhtCrawler = 0x70b0d47c;
constexpr std::size_t kThreads = 2;

/// A flag is right when the torrent's publisher is a fake farm whose swarm
/// carries spoofed decoys (generator truth the crawlers never see).
bool flagged_correctly(const Ecosystem& eco, TorrentId id) {
  if (!is_fake(eco.truth(id).publisher_class)) return false;
  for (const PeerSession& s : eco.swarm_of(id).sessions()) {
    if (s.spoofed) return true;
  }
  return false;
}

}  // namespace

Report run_dht_spoofed(const Options& options) {
  Report report;
  Tracer tracer(options.trace);

  const std::int64_t t_setup = now_ns();
  ScenarioConfig config = ScenarioConfig::spoofed(kWorldSeed);
  config.window = days(2);
  config.threads = kThreads;
  config.crawler.threads = kThreads;
  Ecosystem eco(config);
  eco.build();
  eco.tracker().reset_state(derive_seed(options.seed, kTagTrackerState));
  Crawler tracker_crawler(eco.portal(), eco.tracker(), eco.network(), eco.geo(),
                          config.crawler, derive_seed(options.seed, kTagCrawler));
  const Dataset tracker_view = tracker_crawler.crawl_window(0, config.window);
  report.setup_s = static_cast<double>(now_ns() - t_setup) * 1e-9;

  const bool rss_reset = reset_peak_rss();
  const double cpu0 = process_cpu_s();
  const std::int64_t t0 = now_ns();
  Dataset dht_view;
  DhtCrawlTotals totals;
  CrossCheckReport cross;
  {
    auto job = tracer.span("job");
    std::unique_ptr<dht::DhtOverlay> overlay;
    {
      auto span = tracer.span("dht.overlay_build");
      overlay = eco.build_dht_overlay(config.window + config.dht_crawler.grace);
    }
    {
      auto span = tracer.span("dht.crawl");
      DhtCrawler crawler(eco.portal(), *overlay, config.dht_crawler,
                         derive_seed(options.seed, kTagDhtCrawler));
      dht_view = crawler.crawl_window(0, config.window);
      totals = crawler.totals();
    }
    {
      auto span = tracer.span("crawler.cross_check");
      cross = cross_check(tracker_view, dht_view);
    }
  }
  report.job_s = static_cast<double>(now_ns() - t0) * 1e-9;
  report.cpu_s = process_cpu_s() - cpu0;
  report.peak_rss_mb = peak_rss_mb();

  std::size_t flagged = 0;
  std::size_t correct = 0;
  for (const TorrentCrossCheck& t : cross.torrents) {
    if (!t.flagged) continue;
    ++flagged;
    if (flagged_correctly(eco, t.portal_id)) ++correct;
  }
  const auto lookups = static_cast<double>(totals.lookups);
  const auto messages = static_cast<double>(totals.messages);
  tracer.count("dht.lookups", lookups);
  tracer.count("dht.messages", messages);
  tracer.count("dht.reply_ratio",
               messages > 0 ? (messages - static_cast<double>(totals.timeouts)) / messages
                            : 0.0);
  tracer.count("dht.hops_per_lookup",
               lookups > 0 ? static_cast<double>(totals.hops) / lookups : 0.0);
  tracer.count("crawler.flagged", static_cast<double>(flagged));
  tracer.count("crawler.flag_precision",
               flagged > 0 ? static_cast<double>(correct) / static_cast<double>(flagged)
                           : 0.0);

  // Per-torrent figures over the pinned world's portal listings, a count
  // the input fixes (see README: batch workloads have no wire requests).
  const auto listings = static_cast<double>(eco.portal().listing_count());
  report.announce_p50_us = report.job_s * 1e6 / listings;
  report.server_cpu_us_per_req = report.cpu_s * 1e6 / listings;

  report.gate(rss_reset, "peak-RSS reset refused by the kernel");
  report.gate(totals.lookups > 0 && cross.matched_count() > 0,
              "DHT crawl matched no torrents");
  report.gate(flagged > 0, "cross-check flagged nothing");
  report.gate(correct == flagged,
              std::to_string(flagged - correct) +
                  " flagged torrents are not spoofing fake-farm swarms");

  Digest d;
  d.u64(dht_view.torrent_count());
  for (std::size_t i = 0; i < dht_view.torrent_count(); ++i) {
    d.u64(dht_view.torrents[i].portal_id);
    d.u64(dht_view.torrents[i].query_count);
    d.u64(dht_view.downloaders[i].size());
    for (IpAddress ip : dht_view.downloaders[i]) d.u64(ip.value());
  }
  for (const TorrentCrossCheck& t : cross.torrents) {
    d.u64(t.portal_id);
    d.u64(t.tracker_peers);
    d.u64(t.dht_peers);
    d.u64(t.common);
    d.f64(t.overlap);
    d.u64((t.flagged ? 1 : 0) | (t.publisher_in_dht ? 2 : 0));
  }
  d.u64(totals.timeouts);
  d.u64(totals.max_hops);
  for (const auto& [name, value] : tracer.counts()) {
    d.str(name);
    d.f64(value);
  }
  report.digest = d.h;
  export_trace(tracer, options, report);
  return report;
}

}  // namespace perfbench
