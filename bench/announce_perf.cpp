// announce_perf — machine-readable perf baseline for the announce fast
// path. Times the full steady-state announce round trip (struct-level
// announce_into and, for reference, the HTTP-string shim) at several
// thread counts and, with --json, writes the numbers (BENCH_announce.json)
// so CI can archive a perf trajectory across PRs.
//
// Threading mirrors the crawler: the tracker is shared, every worker owns
// its torrent (one swarm per thread — concurrent announces for the same
// infohash are unsupported by the sweep) plus its reply/scratch buffers.
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "crypto/sha1.hpp"
#include "harness.hpp"
#include "tracker/tracker.hpp"

namespace btpub {
namespace {

struct Options {
  std::string json_path;
  // Per-thread announce count. 3000 fits inside one swarm lifetime at the
  // enforced gap, so a client only has to rotate on wrap, like the crawl.
  std::size_t iters = 60000;
  std::size_t peers = 5000;
};

struct Result {
  std::string mode;
  std::size_t threads = 0;
  std::size_t announces = 0;
  double seconds = 0.0;
  double ns_per_announce() const { return seconds * 1e9 / double(announces); }
  double ops_per_sec() const { return double(announces) / seconds; }
};

Swarm make_swarm(const std::string& tag, std::size_t peers) {
  Swarm swarm(Sha1::hash(tag), 1024, 0);
  for (std::uint32_t i = 0; i < peers; ++i) {
    PeerSession s;
    s.endpoint = Endpoint{IpAddress(0x0D000000 + i), 6881};
    s.arrive = static_cast<SimTime>(i % 1000);
    s.depart = days(30);
    if (i % 7 == 0) s.complete_at = s.arrive + hours(2);
    swarm.add_session(s);
  }
  swarm.finalize();
  return swarm;
}

/// One worker's announce loop; `http` selects the wire-format shim.
void run_worker(Tracker& tracker, const Sha1Digest& infohash,
                std::uint32_t client_base, std::size_t iters, bool http) {
  const SimDuration gap = tracker.enforced_gap() + kSecond;
  AnnounceRequest request;
  request.infohash = infohash;
  request.client = Endpoint{IpAddress(client_base), 6881};
  request.numwant = 200;
  AnnounceReply reply;
  Tracker::AnnounceScratch scratch;
  SimTime now = hours(1);
  for (std::size_t i = 0; i < iters; ++i) {
    if (now > days(29)) {  // fresh client before the rewind trips the limiter
      now = hours(1);
      request.client.ip = IpAddress(request.client.ip.value() + 1);
    }
    request.now = now;
    now += gap;
    if (http) {
      reply = decode_announce_reply(tracker.handle_get(to_query_string(request)));
    } else {
      tracker.announce_into(request, reply, scratch);
    }
    if (reply.ok == (reply.peers.size() > 1u << 30)) std::abort();  // keep live
  }
}

Result run_case(const std::string& mode, std::size_t threads,
                const Options& opt) {
  Tracker tracker(TrackerConfig{}, Rng(1));
  std::vector<Swarm> swarms;
  swarms.reserve(threads);
  for (std::size_t t = 0; t < threads; ++t) {
    swarms.push_back(make_swarm("announce_perf_" + std::to_string(t), opt.peers));
  }
  for (Swarm& swarm : swarms) tracker.host_swarm(swarm);  // build-time only

  const bool http = mode == "http";
  const auto t0 = std::chrono::steady_clock::now();
  if (threads == 1) {
    run_worker(tracker, swarms[0].infohash(), 0x0E000000, opt.iters, http);
  } else {
    std::vector<std::thread> workers;
    workers.reserve(threads);
    for (std::size_t t = 0; t < threads; ++t) {
      workers.emplace_back([&, t] {
        run_worker(tracker, swarms[t].infohash(),
                   0x0E000000 + static_cast<std::uint32_t>(t) * 0x10000,
                   opt.iters, http);
      });
    }
    for (std::thread& w : workers) w.join();
  }
  const auto t1 = std::chrono::steady_clock::now();

  Result r;
  r.mode = mode;
  r.threads = threads;
  r.announces = opt.iters * threads;
  r.seconds = std::chrono::duration<double>(t1 - t0).count();
  return r;
}

int run(int argc, char** argv) {
  Options opt;
  bench::parse_flags(argc, argv,
                     "[--json PATH] [--iters N] [--peers N] [--quick]",
                     {{"--json", &opt.json_path},
                      {"--iters", &opt.iters},
                      {"--peers", &opt.peers},
                      {"--quick", [&] { opt.iters = 5000; }}});

  std::vector<std::size_t> thread_counts = {1, 2, 4};
  const std::size_t hw = std::thread::hardware_concurrency();
  if (hw >= 8) thread_counts.push_back(8);

  std::vector<bench::JsonObject> rows;
  for (const char* mode : {"struct", "http"}) {
    for (const std::size_t threads : thread_counts) {
      const Result r = run_case(mode, threads, opt);
      std::printf(
          "%-6s %2zu thread(s): %9.0f announces/s  (%.0f ns/announce)\n",
          r.mode.c_str(), r.threads, r.ops_per_sec(), r.ns_per_announce());
      rows.push_back(bench::JsonObject()
                         .text("mode", r.mode)
                         .integer("threads", r.threads)
                         .integer("announces", r.announces)
                         .fixed("seconds", r.seconds, 4)
                         .fixed("ns_per_announce", r.ns_per_announce(), 1)
                         .fixed("ops_per_sec", r.ops_per_sec(), 0));
    }
  }
  bench::write_bench_json(opt.json_path, "announce_round_trip",
                          bench::JsonObject()
                              .integer("peers_per_swarm", opt.peers)
                              .integer("numwant", 200)
                              .integer("iters_per_thread", opt.iters),
                          rows);
  return 0;
}

}  // namespace
}  // namespace btpub

int main(int argc, char** argv) {
  return btpub::bench::guarded_main(argc, argv, btpub::run);
}
