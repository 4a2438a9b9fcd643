// stream_perf — machine-readable perf baseline for the streaming analysis
// layer (§4.5). Measures the per-update cost of each streaming component
// (HyperLogLog add, count-min add, online session insertion, the
// classifier's observer hot path) and the end-to-end cost of running a
// full tracker crawl with the StreamingClassifier attached versus plain.
// With --json, writes wall time, per-update nanoseconds and peak RSS
// (BENCH_stream.json) so CI can archive the trajectory across PRs.
//
// Every case runs in a forked child (bench/harness run_forked) so its peak
// RSS is its own.
#include <chrono>
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "analysis/streaming/online_session.hpp"
#include "analysis/streaming/sketch.hpp"
#include "analysis/streaming/streaming_classifier.hpp"
#include "core/ecosystem.hpp"
#include "crawler/crawler.hpp"
#include "harness.hpp"
#include "synth_world.hpp"

namespace btpub {
namespace {

struct Options {
  std::string json_path;
  std::uint64_t seed = 42;
  bool quick = false;
};

/// What a forked case ships back to the parent.
struct CaseResult {
  double seconds = 0.0;      // timed section only
  std::uint64_t updates = 0;  // units the timed section processed
  /// Case-specific quality metric: relative estimate error for the sketch
  /// cases, snapshot seconds for the crawl cases.
  double aux = 0.0;
};

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

ScenarioConfig crawl_scenario(const Options& opt) {
  ScenarioConfig config = ScenarioConfig::quick(opt.seed);
  if (opt.quick) {
    config.window = days(2);
    config.population.regular_publishers /= 3;
  }
  return config;
}

CaseResult run_case(const std::string& name, const Options& opt) {
  CaseResult result;

  if (name == "hll_update") {
    // The distinct-IP hot path, including the saturation regime the sketch
    // exists for: millions of distinct keys into one 4 KiB sketch.
    const std::uint64_t n = opt.quick ? 2'000'000 : 10'000'000;
    HyperLogLog hll(12);
    const auto t0 = std::chrono::steady_clock::now();
    for (std::uint64_t i = 0; i < n; ++i) hll.add(i);
    result.seconds = seconds_since(t0);
    result.updates = n;
    result.aux = std::abs(hll.estimate() - static_cast<double>(n)) /
                 static_cast<double>(n);
  } else if (name == "cms_update") {
    const std::uint64_t n = opt.quick ? 2'000'000 : 10'000'000;
    CountMinSketch cms(4096, 4);
    const auto t0 = std::chrono::steady_clock::now();
    for (std::uint64_t i = 0; i < n; ++i) cms.add(i & 0xFFFFF);
    result.seconds = seconds_since(t0);
    result.updates = n;
    result.aux = cms.epsilon();
  } else if (name == "sighting_update") {
    // Per-sighting insertion cost of the online session estimator over a
    // realistic publisher mix: mostly in-order tracker sightings with a
    // second vantage interleaving out of order.
    const std::size_t publishers = opt.quick ? 500 : 2000;
    const std::size_t per_publisher = opt.quick ? 400 : 1000;
    Rng rng(opt.seed);
    std::vector<OnlineSessionEstimator> estimators(publishers);
    std::vector<SimTime> times;
    times.reserve(per_publisher);
    const auto t0 = std::chrono::steady_clock::now();
    for (auto& est : estimators) {
      times.clear();
      SimTime t = 0;
      for (std::size_t s = 0; s < per_publisher; ++s) {
        t += minutes(5 + rng.uniform_int(0, 120));
        times.push_back(t);
      }
      // ~10% of the stream arrives late (the DHT vantage).
      for (std::size_t s = 0; s + 10 < times.size(); s += 10) {
        std::swap(times[s], times[s + 10]);
      }
      for (const SimTime sighting : times) est.add_sighting(sighting);
    }
    result.seconds = seconds_since(t0);
    result.updates = publishers * per_publisher;
    double sessions = 0.0;
    for (const auto& est : estimators) {
      sessions += static_cast<double>(est.session_count());
    }
    result.aux = sessions / static_cast<double>(publishers);
  } else if (name == "classifier_push") {
    // The observer hot path end to end: slot lookup under the shared lock,
    // HLL add, count-min add, session insertion.
    const TorrentId torrents = opt.quick ? 200 : 1000;
    const int rounds = 50, batch = 40;
    GeoDb geo;
    WebsiteDirectory websites;
    StreamingClassifier stream(geo, websites, {});
    for (TorrentId id = 0; id < torrents; ++id) {
      TorrentRecord record;
      record.portal_id = id;
      record.username = "pub" + std::to_string(id % 97);
      record.publisher_ip = IpAddress(0x0A000000u + static_cast<std::uint32_t>(id));
      stream.on_discover(record, 0);
    }
    std::vector<IpAddress> ips(batch);
    const auto t0 = std::chrono::steady_clock::now();
    for (int round = 0; round < rounds; ++round) {
      const SimTime now = minutes(30) * (round + 1);
      for (TorrentId id = 0; id < torrents; ++id) {
        for (int i = 0; i < batch; ++i) {
          ips[static_cast<std::size_t>(i)] = IpAddress(
              0x20000000u + static_cast<std::uint32_t>(id) * 8192 +
              static_cast<std::uint32_t>(round * batch + i));
        }
        stream.on_downloaders(id, ips, now);
        stream.on_publisher_sighting(id, now);
      }
    }
    result.seconds = seconds_since(t0);
    result.updates = stream.updates();
    const auto s0 = std::chrono::steady_clock::now();
    const StreamingSnapshot snap = stream.finalize(hours(25));
    result.aux = seconds_since(s0);  // full-snapshot cost
    if (snap.torrents != static_cast<std::size_t>(torrents)) {
      throw std::runtime_error("classifier_push: snapshot lost torrents");
    }
  } else if (name == "crawl_plain" || name == "crawl_observer") {
    // End-to-end: the quick-scenario tracker crawl, with and without the
    // streaming classifier riding along; the pair quantifies the observer
    // overhead on the real announce path.
    ScenarioConfig config = crawl_scenario(opt);
    Ecosystem ecosystem(config);
    ecosystem.build();
    StreamingClassifier stream(ecosystem.geo(), ecosystem.websites(), {});
    ecosystem.tracker().reset_state(derive_seed(config.seed, 0xBE7Cull));
    Crawler crawler(ecosystem.portal(), ecosystem.tracker(),
                    ecosystem.network(), ecosystem.geo(), config.crawler,
                    derive_seed(config.seed, 0xC7A31ull));
    if (name == "crawl_observer") crawler.set_observer(&stream);
    const auto t0 = std::chrono::steady_clock::now();
    const Dataset dataset = crawler.crawl_window(0, config.window);
    result.seconds = seconds_since(t0);
    result.updates = name == "crawl_observer"
                         ? stream.updates()
                         : bench::dataset_sessions(dataset);
    if (name == "crawl_observer") {
      const auto s0 = std::chrono::steady_clock::now();
      const StreamingSnapshot snap = stream.finalize(config.window);
      result.aux = seconds_since(s0);
      if (snap.torrents != dataset.torrent_count()) {
        throw std::runtime_error("crawl_observer: snapshot lost torrents");
      }
    }
  } else {
    throw std::logic_error("unknown case " + name);
  }
  return result;
}

int run(int argc, char** argv) {
  Options opt;
  bench::parse_flags(argc, argv, "[--json PATH] [--seed N] [--quick]",
                     {{"--json", &opt.json_path},
                      {"--seed", &opt.seed},
                      {"--quick", &opt.quick}});

  const std::vector<std::string> cases{"hll_update", "cms_update",
                                       "sighting_update", "classifier_push",
                                       "crawl_plain", "crawl_observer"};
  std::vector<bench::JsonObject> rows;
  for (const std::string& name : cases) {
    std::fprintf(stderr, "stream_perf: %s...\n", name.c_str());
    const auto [r, peak_rss_kb] = bench::run_forked(
        name.c_str(), [&] { return run_case(name, opt); });
    const double ns = r.updates > 0
                          ? r.seconds * 1e9 / static_cast<double>(r.updates)
                          : 0.0;
    std::printf("%-16s %8.3fs  %10llu updates  %7.1f ns/update  %7ld KB  "
                "aux=%.6f\n",
                name.c_str(), r.seconds,
                static_cast<unsigned long long>(r.updates), ns, peak_rss_kb,
                r.aux);
    rows.push_back(bench::JsonObject()
                       .text("case", name)
                       .fixed("seconds", r.seconds, 4)
                       .integer("updates", r.updates)
                       .fixed("ns_per_update", ns, 1)
                       .integer("peak_rss_kb", peak_rss_kb)
                       .fixed("aux", r.aux, 6));
  }
  bench::write_bench_json(
      opt.json_path, "streaming_analysis",
      bench::JsonObject().integer("seed", opt.seed).flag("quick", opt.quick),
      rows);
  return 0;
}

}  // namespace
}  // namespace btpub

int main(int argc, char** argv) {
  return btpub::bench::guarded_main(argc, argv, btpub::run);
}
