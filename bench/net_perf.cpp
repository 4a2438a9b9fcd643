// net_perf — machine-readable perf baseline for the wire-serving path
// (BENCH_net.json in CI, written with --json). Each case spawns a
// ServeDaemon child (bench/harness spawn/stop, so its peak RSS is its
// own), drives it over loopback with the in-process load generator at
// 1/2/4/N worker threads, and records announces/sec plus p50/p90/p99
// round-trip latency. A single-thread announce_into loop over an identical
// world provides the in-process control, reported as the "inprocess" row:
// the wire/in-process throughput ratio is the machine-normalized number CI
// gates on (tools/check_bench.py), since absolute packets/sec vary wildly
// across runner hardware.
#include <csignal>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "harness.hpp"
#include "netio/loadgen.hpp"
#include "netio/serve.hpp"
#include "tracker/tracker.hpp"
#include "util/rng.hpp"

namespace btpub {
namespace {

struct Options {
  std::string json_path;
  double duration = 2.0;
  std::size_t swarms = 32;
  std::size_t peers = 2000;
  std::uint32_t numwant = 50;
  std::size_t window = 64;
  std::uint64_t seed = 42;
  bool quick = false;
};

struct CaseResult {
  std::string transport;
  std::size_t threads = 0;
  /// The in-process control fills only sent, received and elapsed_seconds.
  netio::LoadgenReport report{};
  long server_peak_rss_kb = 0;
};

netio::ServeDaemon* g_child_daemon = nullptr;

void child_term_handler(int) {
  if (g_child_daemon != nullptr) g_child_daemon->request_stop();
}

struct Ports {
  std::uint16_t udp = 0;
  std::uint16_t http = 0;
};

/// Spawns a serving child with `shards` UDP shards; returns once the child
/// reports its bound ports. The child serves until SIGTERM (2-minute
/// backstop so a crashed parent cannot leak a spinning daemon).
bench::Spawned<Ports> spawn_server(std::size_t shards, const Options& opt) {
  return bench::spawn<Ports>("net_perf server", [&](auto&& ready) {
    netio::ServeConfig config;
    config.udp_port = 0;
    config.http_port = 0;
    config.shards = shards;
    config.swarms = opt.swarms;
    config.peers_per_swarm = opt.peers;
    config.seed = opt.seed;
    config.duration_seconds = 120.0;
    netio::ServeDaemon daemon(config);
    g_child_daemon = &daemon;
    std::signal(SIGTERM, child_term_handler);
    ready(Ports{daemon.udp_port(), daemon.http_port()});
    daemon.run();
  });
}

CaseResult run_wire_case(const char* transport, std::size_t threads,
                         const Options& opt) {
  const bench::Spawned<Ports> server = spawn_server(threads, opt);

  netio::LoadgenConfig config;
  config.udp_port = server.value.udp;
  config.threads = threads;
  config.duration_seconds = opt.duration;
  config.window = opt.window;
  config.seed = opt.seed;
  config.swarms = opt.swarms;
  config.numwant = opt.numwant;
  if (std::string_view(transport) == "http") {
    config.use_http = true;
    config.http_port = server.value.http;
  }
  CaseResult r{transport, threads, netio::run_loadgen(config)};
  r.server_peak_rss_kb = bench::stop("net_perf server", server.pid);
  return r;
}

/// The control: the same world answered through announce_into directly,
/// no sockets. Wire cases are reported as a fraction of this.
CaseResult run_inprocess_case(const Options& opt) {
  std::vector<Swarm> world =
      netio::build_serve_world(opt.seed, opt.swarms, opt.peers);
  TrackerConfig config;
  config.min_query_gap = 0;
  config.max_query_gap = 0;
  Tracker tracker(config, Rng(derive_seed(opt.seed, 0x6e657453'65727665ULL)));
  for (Swarm& swarm : world) tracker.host_swarm(swarm);

  Rng rng(derive_seed(opt.seed, 1));
  AnnounceRequest request;
  request.numwant = opt.numwant;
  request.now = hours(2);
  AnnounceReply reply;
  Tracker::AnnounceScratch scratch;

  const std::size_t iters = opt.quick ? 100000 : 400000;
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < iters; ++i) {
    request.infohash =
        netio::serve_swarm_infohash(opt.seed, rng.next() % opt.swarms);
    request.client =
        Endpoint{IpAddress(0x0B000000u + static_cast<std::uint32_t>(i % 256)),
                 6881};
    tracker.announce_into(request, reply, scratch);
    if (reply.ok == (reply.peers.size() > 1u << 30)) std::abort();  // keep live
  }
  const auto t1 = std::chrono::steady_clock::now();

  CaseResult r{"inprocess", 1};
  r.report.sent = r.report.received = iters;
  r.report.elapsed_seconds = std::chrono::duration<double>(t1 - t0).count();
  return r;
}

int run(int argc, char** argv) {
  Options opt;
  bench::parse_flags(argc, argv, "[--json PATH] [--duration SECONDS] [--quick]",
                     {{"--json", &opt.json_path},
                      {"--duration", &opt.duration},
                      {"--quick", [&] {
                         opt.quick = true;
                         opt.duration = 1.0;
                       }}});

  // Best-of-2 everywhere: loopback numbers share cores with whatever else
  // the runner is doing, and that interference is one-sided (it only ever
  // slows a case down), so the max over two runs is the low-noise
  // estimate of true capacity — what the regression gate needs.
  const auto best_of_two = [](auto&& run) {
    const CaseResult first = run();
    const CaseResult again = run();
    return again.report.throughput() > first.report.throughput() ? again
                                                                 : first;
  };
  const CaseResult control =
      best_of_two([&] { return run_inprocess_case(opt); });
  const double control_ops = control.report.throughput();
  std::printf("%-5s %2zu thread(s): %9.0f announces/s\n", "ctrl",
              control.threads, control_ops);

  std::vector<std::size_t> thread_counts = {1, 2, 4};
  const std::size_t hw = std::thread::hardware_concurrency();
  if (hw > 4 && !opt.quick) thread_counts.push_back(hw);
  if (opt.quick) thread_counts = {1, 2};

  std::vector<CaseResult> results = {control};
  const auto wire = [&](const char* transport, std::size_t threads) {
    const CaseResult r = best_of_two(
        [&] { return run_wire_case(transport, threads, opt); });
    std::printf(
        "%-5s %2zu thread(s): %9.0f announces/s  p50 %.3f ms  p99 %.3f ms  "
        "rss %ld kB\n",
        r.transport.c_str(), r.threads, r.report.throughput(),
        static_cast<double>(r.report.p50_ns) / 1e6,
        static_cast<double>(r.report.p99_ns) / 1e6, r.server_peak_rss_kb);
    results.push_back(r);
  };
  for (const std::size_t threads : thread_counts) wire("udp", threads);
  wire("http", 1);

  std::vector<bench::JsonObject> rows;
  for (const auto& [transport, threads, report, rss_kb] : results) {
    const double ops = report.throughput();
    rows.push_back(
        bench::JsonObject()
            .text("transport", transport)
            .integer("threads", threads)
            .integer("sent", report.sent)
            .integer("received", report.received)
            .integer("errors", report.errors)
            .integer("timeouts", report.timeouts)
            .fixed("seconds", report.elapsed_seconds, 4)
            .fixed("announces_per_sec", ops, 0)
            .fixed("wire_vs_inprocess",
                   control_ops > 0.0 ? ops / control_ops : 0.0, 4)
            .integer("p50_ns", report.p50_ns)
            .integer("p90_ns", report.p90_ns)
            .integer("p99_ns", report.p99_ns)
            .integer("server_peak_rss_kb", rss_kb));
  }
  bench::write_bench_json(opt.json_path, "net_serve",
                          bench::JsonObject()
                              .integer("swarms", opt.swarms)
                              .integer("peers_per_swarm", opt.peers)
                              .integer("numwant", opt.numwant)
                              .integer("window", opt.window)
                              .real("duration_seconds", opt.duration),
                          rows);
  return 0;
}

}  // namespace
}  // namespace btpub

int main(int argc, char** argv) {
  return btpub::bench::guarded_main(argc, argv, btpub::run);
}
