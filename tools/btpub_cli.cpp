// btpub — command-line front end for the toolkit.
//
//   btpub simulate --scenario pb10 --seed 42 --out pb10.mmap
//       build the ecosystem, run the measurement crawl, save the dataset
//       as an mmap snapshot (crawler/dataset_mmap.hpp)
//   btpub analyze pb10.mmap
//       identity analysis summary: skew, fake/top shares, top publishers
//   btpub export pb10.mmap out_dir/
//       write torrents.csv (one row per torrent) and sightings.csv (one
//       row per publisher sighting) into out_dir/; exits 2 when either
//       file cannot be written
//   btpub feed --scenario quick --seed 7
//       print the portal's RSS 2.0 XML after a simulated day
//   btpub dht-crawl --scenario spoofed --seed 42 --out spoofed_dht.mmap
//       run the trackerless (DHT) vantage next to the tracker crawl and
//       print the cross-check report (tracker-vs-DHT disagreement flags)
//   btpub serve --port 8800 --shards 4
//       run the wire tracker daemon (BEP 15 UDP + HTTP announce/scrape);
//       SIGINT/SIGTERM drain gracefully and print serving stats
//   btpub loadgen --port 8800 --threads 4 --duration 5
//       drive a served tracker with deterministic announce streams and
//       print throughput + latency percentiles
//
// Exit codes: 0 ok, 1 usage error, 2 runtime failure.
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "analysis/contribution.hpp"
#include "analysis/groups.hpp"
#include "core/ecosystem.hpp"
#include "crawler/cross_check.hpp"
#include "crawler/dataset_mmap.hpp"
#include "netio/loadgen.hpp"
#include "netio/serve.hpp"
#include "portal/rss.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

using namespace btpub;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  btpub simulate --scenario"
               " <pb10|pb09|mn08|signature|quick|spoofed>"
               " [--seed N] [--threads N] --out FILE\n"
               "  btpub analyze FILE [--top N]\n"
               "  btpub export FILE OUT_DIR\n"
               "  btpub feed [--scenario NAME] [--seed N]\n"
               "  btpub dht-crawl [--scenario NAME] [--seed N] [--out FILE]"
               " [--bootstrap MAGNET]\n"
               "  btpub serve [--bind IP] [--port N] [--http-port N]"
               " [--no-http] [--shards N]\n"
               "              [--swarms N] [--peers N] [--seed N]"
               " [--query-gap SECONDS]\n"
               "              [--duration SECONDS] [--max-announces N]\n"
               "  btpub loadgen [--target IP] --port N [--threads N]"
               " [--duration SECONDS]\n"
               "              [--rate PER_WORKER_PER_SEC] [--window N]"
               " [--numwant N]\n"
               "              [--max-requests N] [--swarms N] [--seed N]"
               " [--http --http-port N]\n");
  return 1;
}

struct Options {
  std::string scenario = "quick";
  std::uint64_t seed = 42;
  std::string out;
  std::size_t top_n = 100;
  /// Worker threads for the ecosystem build and the crawl; 0 = hardware
  /// concurrency. Both phases are byte-identical for every value.
  std::size_t threads = 0;
  /// dht-crawl: magnet URI whose x.pe hints bootstrap the DHT vantage.
  std::string bootstrap;
  // serve / loadgen (src/netio/).
  std::string bind_ip = "127.0.0.1";
  std::uint16_t port = 0;
  std::uint16_t http_port = 0;
  bool no_http = false;
  bool use_http = false;
  std::size_t shards = 1;
  std::size_t swarms = 64;
  std::size_t peers = 2000;
  double query_gap = 0.0;
  double duration = 0.0;
  std::uint64_t max_announces = 0;
  std::uint64_t max_requests = 0;
  double rate = 0.0;
  std::size_t window = 32;
  std::uint32_t numwant = 50;
  std::vector<std::string> positional;
};

/// The value of a numeric flag; anything parse_uint rejects (a typo, a
/// sign, a port above 65535) is a usage error rather than a silent 0 or a
/// wrapped value.
std::uint64_t number(const std::string& flag, const std::string& value,
                     std::uint64_t max = UINT64_MAX) {
  const std::optional<std::uint64_t> n = parse_uint(value, max);
  if (!n) throw std::invalid_argument("bad value '" + value + "' for " + flag);
  return *n;
}

/// The value of a seconds/rate flag, held to the same rule via
/// parse_double.
double real_number(const std::string& flag, const std::string& value) {
  const std::optional<double> x = parse_double(value);
  if (!x) throw std::invalid_argument("bad value '" + value + "' for " + flag);
  return *x;
}

Options parse_options(int argc, char** argv, int first) {
  Options options;
  for (int i = first; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument("missing value for " + arg);
      return argv[++i];
    };
    if (arg == "--scenario") {
      options.scenario = next();
    } else if (arg == "--seed") {
      options.seed = number(arg, next());
    } else if (arg == "--out") {
      options.out = next();
    } else if (arg == "--top") {
      options.top_n = number(arg, next());
    } else if (arg == "--threads") {
      options.threads = number(arg, next());
    } else if (arg == "--bootstrap") {
      options.bootstrap = next();
    } else if (arg == "--bind" || arg == "--target") {
      options.bind_ip = next();
    } else if (arg == "--port") {
      options.port =
          static_cast<std::uint16_t>(number(arg, next(), UINT16_MAX));
    } else if (arg == "--http-port") {
      options.http_port =
          static_cast<std::uint16_t>(number(arg, next(), UINT16_MAX));
    } else if (arg == "--no-http") {
      options.no_http = true;
    } else if (arg == "--http") {
      options.use_http = true;
    } else if (arg == "--shards") {
      options.shards = number(arg, next());
    } else if (arg == "--swarms") {
      options.swarms = number(arg, next());
    } else if (arg == "--peers") {
      options.peers = number(arg, next());
    } else if (arg == "--query-gap") {
      options.query_gap = real_number(arg, next());
    } else if (arg == "--duration") {
      options.duration = real_number(arg, next());
    } else if (arg == "--max-announces") {
      options.max_announces = number(arg, next());
    } else if (arg == "--max-requests") {
      options.max_requests = number(arg, next());
    } else if (arg == "--rate") {
      options.rate = real_number(arg, next());
    } else if (arg == "--window") {
      options.window = number(arg, next());
    } else if (arg == "--numwant") {
      options.numwant =
          static_cast<std::uint32_t>(number(arg, next(), UINT32_MAX));
    } else if (starts_with(arg, "--")) {
      throw std::invalid_argument("unknown option " + arg);
    } else {
      options.positional.push_back(arg);
    }
  }
  return options;
}

int cmd_simulate(const Options& options) {
  if (options.out.empty()) {
    std::fprintf(stderr, "simulate: --out FILE is required\n");
    return 1;
  }
  ScenarioConfig config =
      ScenarioConfig::by_name(options.scenario, options.seed);
  // One knob drives both parallel engines; either phase is byte-identical
  // at any thread count.
  config.threads = options.threads;
  config.crawler.threads = options.threads;
  std::fprintf(stderr, "building %s (seed %llu)...\n", config.name.c_str(),
               static_cast<unsigned long long>(config.seed));
  Ecosystem ecosystem(config);
  ecosystem.build();
  std::fprintf(stderr, "crawling %zu torrents...\n", ecosystem.torrent_count());
  const CompactDataset compact = compact_dataset(ecosystem.crawl());
  save_mmap_snapshot(compact, options.out);
  const CompactDatasetView view = compact.view();
  std::printf("wrote %s: %zu torrents, %zu distinct downloader IPs\n",
              options.out.c_str(), view.torrent_count(),
              view.distinct_ips_global());
  return 0;
}

int cmd_analyze(const Options& options) {
  if (options.positional.empty()) {
    std::fprintf(stderr, "analyze: dataset file required\n");
    return 1;
  }
  // Zero-copy: the analysis reads the mapped arrays in place.
  const MappedDataset mapped(options.positional[0]);
  const CompactDatasetView& view = mapped.view();
  const IspCatalog catalog = IspCatalog::standard();
  const IdentityAnalysis identity(view, catalog.db(), options.top_n);

  AsciiTable summary("Dataset " + std::string(view.name));
  summary.header({"metric", "value"});
  summary.row({"torrents", std::to_string(view.torrent_count())});
  summary.row({"with username", std::to_string(view.with_username())});
  summary.row({"with publisher IP", std::to_string(view.with_publisher_ip())});
  summary.row({"distinct downloader IPs",
               std::to_string(view.distinct_ips_global())});
  summary.row({"publishers (usernames)",
               std::to_string(identity.usernames().size())});
  summary.row({"fake usernames", std::to_string(identity.fake_usernames().size())});
  summary.row({"top publishers", std::to_string(identity.top().size())});
  summary.print();

  const auto fake = identity.share_of(TargetGroup::Fake);
  const auto top = identity.share_of(TargetGroup::Top);
  AsciiTable shares("Group shares");
  shares.header({"group", "content", "downloads"});
  shares.row({"Fake", percent(fake.content), percent(fake.downloads)});
  shares.row({"Top", percent(top.content), percent(top.downloads)});
  shares.row({"Fake+Top", percent(fake.content + top.content),
              percent(fake.downloads + top.downloads)});
  shares.print();

  const std::vector<double> xs{1, 3, 10, 50};
  const auto curve = contribution_curve(identity, xs);
  AsciiTable skew("Contribution skew (gini " + format_double(curve.gini, 2) + ")");
  skew.header({"top x%", "content share"});
  for (const LorenzPoint& p : curve.points) {
    skew.row({format_double(p.top_percent, 0) + "%",
              format_double(p.content_percent, 1) + "%"});
  }
  skew.print();
  return 0;
}

int cmd_export(const Options& options) {
  if (options.positional.size() < 2) {
    std::fprintf(stderr, "export: dataset file and output directory required\n");
    return 1;
  }
  // The open deep-validates every record before anything is written.
  const MappedDataset mapped(options.positional[0]);
  const std::string out_dir = options.positional[1];
  std::filesystem::create_directories(out_dir);
  std::ofstream torrents(out_dir + "/torrents.csv");
  std::ofstream sightings(out_dir + "/sightings.csv");
  if (torrents && sightings) {
    write_csv(mapped.view(), torrents, sightings);
    torrents.close();  // a failed close (a lost write) sets failbit
    sightings.close();
  }
  if (!torrents || !sightings) {
    std::fprintf(stderr, "export: cannot write %s/%s\n", out_dir.c_str(),
                 !torrents ? "torrents.csv" : "sightings.csv");
    return 2;
  }
  std::printf("exported %zu torrents to %s/\n", mapped.view().torrent_count(),
              out_dir.c_str());
  return 0;
}

int cmd_dht_crawl(const Options& options) {
  ScenarioConfig config =
      ScenarioConfig::by_name(options.scenario, options.seed);
  config.threads = options.threads;
  config.crawler.threads = options.threads;
  config.dht_crawler.bootstrap_magnet = options.bootstrap;
  std::fprintf(stderr, "building %s (seed %llu)...\n", config.name.c_str(),
               static_cast<unsigned long long>(config.seed));
  Ecosystem ecosystem(config);
  ecosystem.build();
  std::fprintf(stderr, "crawling %zu torrents from both vantages...\n",
               ecosystem.torrent_count());
  const Dataset tracker_view = ecosystem.crawl();
  const Dataset dht_view = ecosystem.dht_crawl();
  if (!options.out.empty()) {
    save_mmap_snapshot(compact_dataset(dht_view), options.out);
  }

  const CrossCheckReport report = cross_check(tracker_view, dht_view);
  AsciiTable summary("Tracker vs DHT (" + config.name + ")");
  summary.header({"metric", "value"});
  summary.row({"torrents (tracker)", std::to_string(tracker_view.torrent_count())});
  summary.row({"torrents (dht)", std::to_string(dht_view.torrent_count())});
  summary.row({"matched", std::to_string(report.matched_count())});
  summary.row({"flagged (spoof signature)", std::to_string(report.flagged_count())});
  summary.print();

  AsciiTable flagged("Flagged torrents");
  flagged.header({"portal_id", "tracker peers", "dht peers", "overlap",
                  "publisher in dht"});
  for (const TorrentCrossCheck& check : report.torrents) {
    if (!check.flagged) continue;
    flagged.row({std::to_string(check.portal_id),
                 std::to_string(check.tracker_peers),
                 std::to_string(check.dht_peers),
                 format_double(check.overlap * 100.0, 1) + "%",
                 check.tracker_publisher_ip
                     ? (check.publisher_in_dht ? "yes" : "NO")
                     : "n/a"});
  }
  flagged.print();
  return 0;
}

// The daemon the signal handler stops; set only while cmd_serve runs.
netio::ServeDaemon* g_serve_daemon = nullptr;

void stop_signal_handler(int) {
  // request_stop is a single eventfd write: async-signal-safe.
  if (g_serve_daemon != nullptr) g_serve_daemon->request_stop();
}

int cmd_serve(const Options& options) {
  netio::ServeConfig config;
  config.bind_ip = options.bind_ip;
  config.udp_port = options.port;
  config.http_port = options.http_port;
  config.enable_http = !options.no_http;
  config.shards = options.shards;
  config.swarms = options.swarms;
  config.peers_per_swarm = options.peers;
  config.seed = options.seed;
  config.query_gap = static_cast<SimDuration>(options.query_gap);
  config.duration_seconds = options.duration;
  config.max_announces = options.max_announces;

  try {
    netio::ServeDaemon daemon(config);
    g_serve_daemon = &daemon;
    std::signal(SIGINT, stop_signal_handler);
    std::signal(SIGTERM, stop_signal_handler);
    std::fprintf(stderr,
                 "[btpub] serving udp://%s:%u (%zu shard%s, %zu swarms x %zu"
                 " peers)%s\n",
                 config.bind_ip.c_str(), daemon.udp_port(),
                 daemon.shard_count(), daemon.shard_count() == 1 ? "" : "s",
                 config.swarms, config.peers_per_swarm,
                 config.enable_http
                     ? (", http://" + config.bind_ip + ":" +
                        std::to_string(daemon.http_port()) + "/announce")
                           .c_str()
                     : "");
    daemon.run();
    g_serve_daemon = nullptr;
    std::signal(SIGINT, SIG_DFL);
    std::signal(SIGTERM, SIG_DFL);

    const netio::ServeStats stats = daemon.stats();
    AsciiTable table("Serving stats");
    table.header({"metric", "value"});
    table.row({"datagrams received", std::to_string(stats.datagrams_rx)});
    table.row({"responses sent", std::to_string(stats.responses_tx)});
    table.row({"connects", std::to_string(stats.connects)});
    table.row({"announces", std::to_string(stats.announces)});
    table.row({"scrapes", std::to_string(stats.scrapes)});
    table.row({"malformed", std::to_string(stats.malformed)});
    table.row({"dropped short", std::to_string(stats.dropped_short)});
    table.row({"http requests", std::to_string(stats.http_requests)});
    table.row({"http announces", std::to_string(stats.http_announces)});
    table.print();
    return 0;
  } catch (const std::system_error& e) {
    g_serve_daemon = nullptr;
    std::fprintf(stderr, "[btpub] error: %s (errno %d)\n", e.what(),
                 e.code().value());
    return 2;
  }
}

int cmd_loadgen(const Options& options) {
  if (options.port == 0 && !(options.use_http && options.http_port != 0)) {
    std::fprintf(stderr, "loadgen: --port N is required\n");
    return 1;
  }
  netio::LoadgenConfig config;
  config.target_ip = options.bind_ip;
  config.udp_port = options.port;
  config.threads = options.threads == 0 ? 1 : options.threads;
  config.duration_seconds = options.duration > 0.0 ? options.duration : 2.0;
  config.max_requests = options.max_requests;
  config.rate = options.rate;
  config.window = options.window;
  config.seed = options.seed;
  config.swarms = options.swarms;
  config.numwant = options.numwant;
  config.use_http = options.use_http;
  config.http_port = options.http_port;

  try {
    const netio::LoadgenReport report = netio::run_loadgen(config);
    AsciiTable table("Loadgen report");
    table.header({"metric", "value"});
    table.row({"workers", std::to_string(config.threads)});
    table.row({"sent", std::to_string(report.sent)});
    table.row({"received", std::to_string(report.received)});
    table.row({"errors", std::to_string(report.errors)});
    table.row({"timeouts", std::to_string(report.timeouts)});
    table.row({"reconnects", std::to_string(report.reconnects)});
    table.row({"elapsed", format_double(report.elapsed_seconds, 2) + " s"});
    table.row({"throughput",
               format_double(report.throughput(), 0) + " announces/s"});
    table.row({"p50 latency",
               format_double(static_cast<double>(report.p50_ns) / 1e6, 3) +
                   " ms"});
    table.row({"p90 latency",
               format_double(static_cast<double>(report.p90_ns) / 1e6, 3) +
                   " ms"});
    table.row({"p99 latency",
               format_double(static_cast<double>(report.p99_ns) / 1e6, 3) +
                   " ms"});
    table.print();
    return report.received > 0 ? 0 : 2;
  } catch (const std::system_error& e) {
    std::fprintf(stderr, "[btpub] error: %s (errno %d)\n", e.what(),
                 e.code().value());
    return 2;
  }
}

int cmd_feed(const Options& options) {
  ScenarioConfig config =
      ScenarioConfig::by_name(options.scenario, options.seed);
  config.window = days(1);
  Ecosystem ecosystem(config);
  ecosystem.build();
  const auto items =
      ecosystem.portal().rss_since(kInvalidTorrent, config.window, 30);
  std::fputs(render_rss(ecosystem.portal().name(), items).c_str(), stdout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string command = argv[1];
  try {
    const Options options = parse_options(argc, argv, 2);
    if (command == "simulate") return cmd_simulate(options);
    if (command == "analyze") return cmd_analyze(options);
    if (command == "export") return cmd_export(options);
    if (command == "feed") return cmd_feed(options);
    if (command == "dht-crawl") return cmd_dht_crawl(options);
    if (command == "serve") return cmd_serve(options);
    if (command == "loadgen") return cmd_loadgen(options);
    return usage();
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "btpub: %s\n", e.what());
    return 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "btpub: error: %s\n", e.what());
    return 2;
  }
}
