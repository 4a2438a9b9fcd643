// live_monitor — the paper's §7 software: a system that continuously
// monitors new content published on the portal and reports, in (simulated)
// real time, each content's publisher, category, and — where identifiable —
// the publisher's IP, ISP, and location. Profit-driven publishers get an
// inline "publisher page" with their promoting URL and business type, and
// content from detected fake accounts is flagged (the filtering feature the
// paper describes as future work).
//
// The monitor runs on a simulated clock: an RSS poll every five minutes
// drives single tracker queries, exactly like the real deployment —
// plus a trackerless cross-check: every discovery also walks the Mainline
// DHT (iterative get_peers) and reports when the two vantages disagree, the
// spoofed-tracker-announce signature.
//
// The streaming analysis layer (§4.5): a StreamingClassifier rides the
// crawl as a CrawlObserver. Every tracker reply and DHT lookup feeds its
// sketches (HyperLogLog distinct-IP estimates, count-min announce rates),
// and it keeps each discovered record and publisher sighting. Every
// simulated six hours the monitor prints rolling fake/top/altruistic
// verdicts — the batch identity, classification and session passes run
// over what was observed so far — with the sketch error bounds, instead
// of waiting for a finished dataset.
//
// Build & run:   ./build/examples/live_monitor [seed]
#include <cstdio>
#include <cstdlib>
#include <unordered_set>

#include "analysis/classify.hpp"
#include "analysis/streaming/streaming_classifier.hpp"
#include "core/ecosystem.hpp"
#include "crawler/crawler.hpp"
#include "portal/rss.hpp"
#include "util/strings.hpp"

using namespace btpub;

namespace {

/// The monitoring database of §7: per-content rows plus per-publisher pages.
class MonitorDb {
 public:
  MonitorDb(const GeoDb& geo, const WebsiteDirectory& websites)
      : geo_(&geo), websites_(&websites) {}

  void on_content(const TorrentRecord& record, SimTime now) {
    ++contents_;
    std::string location = "-";
    std::string isp = "-";
    if (record.publisher_ip) {
      if (const auto loc = geo_->lookup(*record.publisher_ip)) {
        isp = std::string(loc->isp_name);
        location = std::string(loc->city) + ", " + std::string(loc->country);
      }
    }
    const bool flagged = fake_accounts_.contains(record.username);
    std::printf("[%s] %-44.44s %-9.9s user=%-14.14s ip=%-15s isp=%-12.12s %s%s\n",
                format_duration(now).c_str(), record.title.c_str(),
                std::string(to_string(record.category)).c_str(),
                record.username.c_str(),
                record.publisher_ip ? record.publisher_ip->to_string().c_str()
                                    : "-",
                isp.c_str(), location.c_str(),
                flagged ? "  << FAKE-PUBLISHER FILTER" : "");

    // Publisher page for promoters (the per-publisher web page of §7).
    if (const auto promo = find_promotion(record)) {
      if (publisher_pages_.insert(record.username).second) {
        std::string business = "unknown site";
        if (const auto view = websites_->visit(promo->domain)) {
          business = view->torrent_index ? "private BitTorrent portal"
                                         : "other web business";
        }
        std::printf("          publisher page: %s promotes http://www.%s/ "
                    "(%s)\n",
                    record.username.c_str(), promo->domain.c_str(),
                    business.c_str());
      }
    }
  }

  void on_removal(const std::string& username) {
    fake_accounts_.insert(username);
  }

  std::size_t contents() const { return contents_; }
  std::size_t flagged_accounts() const { return fake_accounts_.size(); }

 private:
  const GeoDb* geo_;
  const WebsiteDirectory* websites_;
  std::size_t contents_ = 0;
  std::unordered_set<std::string> publisher_pages_;
  std::unordered_set<std::string> fake_accounts_;
};

}  // namespace

int main(int argc, char** argv) {
  const std::uint64_t seed =
      argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 99;

  ScenarioConfig config = ScenarioConfig::spoofed(seed);
  config.window = days(2);  // keep the live log short
  Ecosystem ecosystem(config);
  ecosystem.build();

  Crawler crawler(ecosystem.portal(), ecosystem.tracker(), ecosystem.network(),
                  ecosystem.geo(), CrawlerConfig{}, seed);
  MonitorDb db(ecosystem.geo(), ecosystem.websites());

  // The streaming layer: classification happens while measuring. Every
  // discovery/peer/sighting the crawler makes streams into the sketches.
  StreamingConfig stream_config;
  stream_config.top_n = 10;  // the short two-day window has few publishers
  StreamingClassifier stream(ecosystem.geo(), ecosystem.websites(),
                             stream_config);
  crawler.set_observer(&stream);

  // The trackerless vantage: the swarms' DHT overlay, polled read-only
  // from a measurement box that never joins the routing tables.
  const auto overlay = ecosystem.build_dht_overlay(config.window);
  const Endpoint dht_vantage{IpAddress(10, 88, 0, 1), 6881};

  std::printf("monitoring portal '%s' for %lld simulated days...\n\n",
              ecosystem.portal().name().c_str(),
              static_cast<long long>(config.window / kDay));

  TorrentId last_seen = kInvalidTorrent;
  const auto poll = [&](SimTime now) {
    // 1. Fetch the RSS feed — as real XML — and parse it, exactly like a
    // 2010 feed reader would.
    const std::string xml = render_rss(
        ecosystem.portal().name(), ecosystem.portal().rss_since(last_seen, now));
    for (const RssItem& item : parse_rss(xml).items) {
      last_seen = std::max(last_seen == kInvalidTorrent ? item.id : last_seen,
                           item.id);
      std::vector<IpAddress> ips;
      std::vector<SimTime> sightings;
      if (const auto record = crawler.discover(item.id, now, ips, sightings)) {
        db.on_content(*record, now);
        // Trackerless cross-check: does the DHT confirm the swarm the
        // tracker just described? A populated tracker view with an empty
        // DHT view is the decoy-injection signature.
        overlay->advance_to(now);
        const auto dht_peers = overlay->get_peers(record->infohash, dht_vantage,
                                                  now, nullptr, {},
                                                  /*read_only=*/true);
        std::printf("          dht vantage: %zu peer(s), tracker saw %u%s\n",
                    dht_peers.size(), record->initial_peers,
                    record->initial_peers >= 5 && dht_peers.empty()
                        ? "  << TRACKER/DHT MISMATCH (spoof?)"
                        : "");
        // The DHT view streams into the same classifier: its sketches merge
        // both vantages' peer observations.
        if (!dht_peers.empty()) {
          std::vector<IpAddress> dht_ips;
          dht_ips.reserve(dht_peers.size());
          for (const Endpoint& peer : dht_peers) dht_ips.push_back(peer.ip);
          stream.on_downloaders(record->portal_id, dht_ips, now);
        }
      }
    }
    // 2. Learn from moderation: accounts whose content vanished are fake.
    for (TorrentId id = 0; id <= ecosystem.portal().newest_id() &&
                           id != kInvalidTorrent;
         ++id) {
      const auto page = ecosystem.portal().page(id, now);
      if (page && page->removed) {
        db.on_removal(page->username);
        stream.on_removal(id, now);  // provisional fake signal, mid-crawl
      }
    }
  };
  // 3. Rolling verdicts: every six simulated hours the streaming layer
  // reports who currently looks fake / top / altruistic, with the sketch
  // error bounds — analysis at crawl time, not post-hoc.
  const auto report = [&](SimTime now) {
    const StreamingSnapshot snap = stream.round(now);
    std::printf("\n---- rolling verdicts @ %s ----\n%s----\n\n",
                format_duration(now).c_str(), snap.to_text().c_str());
  };
  // The RSS poll runs every kRssPoll up to the first tick at or past
  // the window end; a report due at the same tick runs before the poll.
  for (SimTime now = 0;; now += kRssPoll) {
    if (now > 0 && now % hours(6) == 0) report(now);
    poll(now);
    if (now >= config.window) break;
  }

  std::printf("\nmonitored %zu contents; fake-publisher filter knows %zu "
              "banned accounts\n",
              db.contents(), db.flagged_accounts());

  const StreamingSnapshot final_snap = stream.round(config.window);
  std::printf("\nfinal streaming verdicts (%llu sketch updates):\n%s",
              static_cast<unsigned long long>(stream.updates()),
              final_snap.to_text().c_str());
  return 0;
}
