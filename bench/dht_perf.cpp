// dht_perf — machine-readable perf baseline for the simulated Mainline
// DHT. Builds overlays of increasing size, then times iterative get_peers
// lookups from a read-only vantage, reporting the Kademlia quantities that
// matter: hops to convergence (O(log n)), messages per lookup, and raw
// lookup throughput. Lookups are deterministic, so each case also carries
// an FNV-1a digest of every lookup's hops, messages and peers found. With
// --json, writes them (BENCH_dht.json); tools/check_bench.py holds each
// case's digest to the committed baseline's.
//
// A case is a few milliseconds of lookups, too short for one timing to
// mean much, so it runs on kReps freshly built overlays and reports the
// median time. Every rep must produce the first rep's digest, or the bench
// fails: a run is also a determinism check.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "crypto/sha1.hpp"
#include "dht/overlay.hpp"
#include "harness.hpp"
#include "util/rng.hpp"

namespace btpub {
namespace {

using dht::DhtOverlay;
using dht::LookupStats;

/// Overlays built and timed per case; the reported time is their median.
constexpr std::size_t kReps = 9;

struct Options {
  std::string json_path;
  std::size_t lookups = 2000;
  std::vector<std::size_t> overlay_sizes = {100, 1000, 4000};
};

struct Result {
  std::size_t nodes = 0;
  std::size_t lookups = 0;
  double avg_hops = 0.0;
  std::uint32_t max_hops = 0;
  double avg_messages = 0.0;
  double avg_peers = 0.0;
  double seconds = 0.0;
  std::uint64_t digest = 14695981039346656037ull;
  double lookups_per_sec() const { return double(lookups) / seconds; }

  void mix(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      digest ^= (v >> (8 * i)) & 0xff;
      digest *= 1099511628211ull;
    }
  }
};

Result run_case(std::size_t n_nodes, const Options& opt) {
  DhtOverlay overlay(/*seed=*/7);
  constexpr std::size_t kTorrents = 64;
  constexpr std::size_t kPeersPerTorrent = 20;

  // Join n nodes, one per second, from a synthetic /8.
  SimTime now = 0;
  std::vector<Endpoint> endpoints;
  endpoints.reserve(n_nodes);
  for (std::size_t i = 0; i < n_nodes; ++i) {
    const Endpoint endpoint{IpAddress(0x0D000000 + static_cast<std::uint32_t>(i)),
                            6881};
    overlay.add_node(endpoint, ++now);
    endpoints.push_back(endpoint);
  }
  // Populate peer stores: each torrent gets announces from a deterministic
  // slice of the population.
  std::vector<Sha1Digest> infohashes;
  infohashes.reserve(kTorrents);
  for (std::size_t t = 0; t < kTorrents; ++t) {
    infohashes.push_back(Sha1::hash("dht_perf_" + std::to_string(t)));
    for (std::size_t p = 0; p < kPeersPerTorrent; ++p) {
      overlay.announce_peer(infohashes.back(),
                            endpoints[(t * kPeersPerTorrent + p) % n_nodes],
                            ++now);
    }
  }

  const Endpoint vantage{IpAddress(10, 88, 0, 1), 6881};
  Rng rng(99);
  Result r;
  r.nodes = n_nodes;
  r.lookups = opt.lookups;
  std::uint64_t hops = 0, messages = 0, peers = 0;
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < opt.lookups; ++i) {
    const Sha1Digest& infohash =
        infohashes[static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(kTorrents - 1)))];
    LookupStats stats;
    const auto found =
        overlay.get_peers(infohash, vantage, now, &stats, {}, /*read_only=*/true);
    hops += stats.hops;
    messages += stats.messages;
    peers += found.size();
    r.mix(stats.hops);
    r.mix(stats.messages);
    r.mix(found.size());
    for (const Endpoint& peer : found) {
      r.mix((std::uint64_t{peer.ip.value()} << 16) | peer.port);
    }
    r.max_hops = std::max(r.max_hops, stats.hops);
  }
  const auto t1 = std::chrono::steady_clock::now();
  r.seconds = std::chrono::duration<double>(t1 - t0).count();
  r.avg_hops = double(hops) / double(opt.lookups);
  r.avg_messages = double(messages) / double(opt.lookups);
  r.avg_peers = double(peers) / double(opt.lookups);
  return r;
}

int run(int argc, char** argv) {
  Options opt;
  bench::parse_flags(argc, argv, "[--json PATH] [--lookups N] [--quick]",
                     {{"--json", &opt.json_path},
                      {"--lookups", &opt.lookups},
                      {"--quick", [&] {
                         opt.lookups = 300;
                         opt.overlay_sizes = {100, 1000};
                       }}});

  std::vector<bench::JsonObject> rows;
  for (const std::size_t n : opt.overlay_sizes) {
    std::vector<Result> reps;
    for (std::size_t i = 0; i < kReps; ++i) {
      reps.push_back(run_case(n, opt));
      if (reps.back().digest != reps.front().digest) {
        throw std::runtime_error("dht_perf: " + std::to_string(n) +
                                 "-node rep " + std::to_string(i) +
                                 " digest differs from rep 0");
      }
    }
    std::nth_element(reps.begin(), reps.begin() + kReps / 2, reps.end(),
                     [](const Result& a, const Result& b) {
                       return a.seconds < b.seconds;
                     });
    const Result& r = reps[kReps / 2];
    char digest[17];
    std::snprintf(digest, sizeof digest, "%016llx",
                  static_cast<unsigned long long>(r.digest));
    std::printf("%5zu nodes: %6.0f lookups/s  avg %.2f hops (max %u), "
                "%.1f msgs/lookup, %.1f peers/lookup, digest %s\n",
                r.nodes, r.lookups_per_sec(), r.avg_hops, r.max_hops,
                r.avg_messages, r.avg_peers, digest);
    rows.push_back(bench::JsonObject()
                       .integer("nodes", r.nodes)
                       .integer("lookups", r.lookups)
                       .fixed("avg_hops", r.avg_hops, 2)
                       .integer("max_hops", r.max_hops)
                       .fixed("avg_messages", r.avg_messages, 1)
                       .fixed("avg_peers", r.avg_peers, 1)
                       .fixed("seconds", r.seconds, 4)
                       .fixed("lookups_per_sec", r.lookups_per_sec(), 0)
                       .text("digest", digest));
  }
  bench::write_bench_json(opt.json_path, "dht_iterative_get_peers",
                          bench::JsonObject()
                              .integer("lookups", opt.lookups)
                              .integer("torrents", 64)
                              .integer("peers_per_torrent", 20),
                          rows);
  return 0;
}

}  // namespace
}  // namespace btpub

int main(int argc, char** argv) {
  return btpub::bench::guarded_main(argc, argv, btpub::run);
}
