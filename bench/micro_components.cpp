// Component microbenchmarks (google-benchmark): the hot paths of the
// measurement apparatus — SHA-1, bencode, tracker announces over a large
// swarm, peer sampling, session reconstruction, and the parallel crawl
// engine's thread scaling.
#include <benchmark/benchmark.h>

#include "analysis/session.hpp"
#include "bencode/bencode.hpp"
#include "core/ecosystem.hpp"
#include "crawler/crawler.hpp"
#include "crypto/sha1.hpp"
#include "torrent/metainfo.hpp"
#include "tracker/tracker.hpp"

namespace btpub {
namespace {

// The label names the kernel Sha1 dispatched to on this CPU.
void BM_Sha1Hash(benchmark::State& state) {
  const std::string data(static_cast<std::size_t>(state.range(0)), 'x');
  for (auto _ : state) {
    benchmark::DoNotOptimize(Sha1::hash(data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
  state.SetLabel(detail::sha1_kernel() == &detail::sha1_compress_portable
                     ? "portable"
                     : "shani");
}
BENCHMARK(BM_Sha1Hash)->Arg(64)->Arg(4096)->Arg(1 << 20);

// One compression kernel called directly on whole blocks, without Sha1's
// buffering and padding: one block, a 41 KB info dict (about the largest a
// synthetic torrent has) and 1 MiB.
void BM_Sha1Kernel(benchmark::State& state, bool shani) {
  const detail::Sha1Kernel kernel =
      shani ? detail::sha1_shani_kernel() : &detail::sha1_compress_portable;
  if (kernel == nullptr) {
    state.SkipWithError("no SHA extensions on this CPU");
    return;
  }
  const std::string data(static_cast<std::size_t>(state.range(0)), 'x');
  const auto* blocks = reinterpret_cast<const std::uint8_t*>(data.data());
  std::array<std::uint32_t, 5> digest_state{};
  for (auto _ : state) {
    kernel(digest_state, blocks, data.size() / 64);
    benchmark::DoNotOptimize(digest_state);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK_CAPTURE(BM_Sha1Kernel, portable, false)->Arg(64)->Arg(41 << 10)->Arg(1 << 20);
BENCHMARK_CAPTURE(BM_Sha1Kernel, shani, true)->Arg(64)->Arg(41 << 10)->Arg(1 << 20);

// make: the pieces PRF, the one-pass encode and the info-dict SHA-1, at
// the creator-rule piece length (512 KiB here, 1400 pieces).
void BM_MetainfoMake(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(Metainfo::make(
        "http://tracker.example/announce", "Some.Release.2010",
        {{"Some.Release.2010.avi", 734003200}, {"Some.Release.2010.nfo", 4096}},
        std::nullopt, "salt"));
  }
}
BENCHMARK(BM_MetainfoMake);

void BM_BencodeParseMetainfo(benchmark::State& state) {
  const std::string bytes =
      Metainfo::make("http://tracker.example/announce", "Some.Release.2010",
                     {{"Some.Release.2010.avi", 734003200}}, std::nullopt, "salt")
          .encode();
  for (auto _ : state) {
    benchmark::DoNotOptimize(Metainfo::parse(bytes));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(bytes.size()));
}
BENCHMARK(BM_BencodeParseMetainfo);

Swarm make_swarm(std::size_t peers) {
  Swarm swarm(Sha1::hash("bench"), 1024, 0);
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

void BM_TrackerAnnounce(benchmark::State& state) {
  Swarm swarm = make_swarm(static_cast<std::size_t>(state.range(0)));
  Tracker tracker(TrackerConfig{}, Rng(1));
  tracker.host_swarm(swarm);
  AnnounceRequest request;
  request.infohash = swarm.infohash();
  request.numwant = 200;
  request.now = days(1);
  std::uint32_t client = 0;
  for (auto _ : state) {
    request.client = Endpoint{IpAddress(0x0E000000 + (client++ & 0xffff)), 1};
    benchmark::DoNotOptimize(tracker.announce(request));
  }
}
BENCHMARK(BM_TrackerAnnounce)->Arg(100)->Arg(5000)->Arg(50000);

// Full announce round trip exactly as the crawler's monitor loop issues it
// post-fast-path: struct-level announce_into with per-worker scratch, no
// query-string or bencode round trip. One client re-announcing at the
// tracker's enforced gap (the steady-state pattern); time wraps before the
// swarm dies, which re-runs the sweep rebuild slow path once per ~3K
// iterations, just like BM_SwarmSweepAdvance.
void BM_AnnounceRoundTrip(benchmark::State& state) {
  Swarm swarm = make_swarm(static_cast<std::size_t>(state.range(0)));
  Tracker tracker(TrackerConfig{}, Rng(1));
  tracker.host_swarm(swarm);
  const SimDuration gap = tracker.enforced_gap() + kSecond;
  AnnounceRequest request;
  request.infohash = swarm.infohash();
  request.client = Endpoint{IpAddress(0x0E000001), 6881};
  request.numwant = 200;
  AnnounceReply reply;
  Tracker::AnnounceScratch scratch;
  SimTime now = hours(1);
  for (auto _ : state) {
    if (now > days(29)) {
      // Fresh client on wrap, BEFORE taking the timestamp, so the rewound
      // clock never pairs a stale last-query entry with an earlier time
      // (which would read as a rate violation and eventually a blacklist).
      now = hours(1);
      request.client.ip = IpAddress(request.client.ip.value() + 1);
    }
    request.now = now;
    now += gap;
    tracker.announce_into(request, reply, scratch);
    benchmark::DoNotOptimize(reply.peers.data());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_AnnounceRoundTrip)->Arg(100)->Arg(5000)->Arg(50000);

// The same round trip through the wire-format shim (to_query_string →
// handle_get → parse/encode → decode_announce_reply) — the pre-fast-path
// crawler inner loop, kept as a benchmark so the strings-vs-structs gap
// stays visible.
void BM_AnnounceRoundTripHttp(benchmark::State& state) {
  Swarm swarm = make_swarm(static_cast<std::size_t>(state.range(0)));
  Tracker tracker(TrackerConfig{}, Rng(1));
  tracker.host_swarm(swarm);
  const SimDuration gap = tracker.enforced_gap() + kSecond;
  AnnounceRequest request;
  request.infohash = swarm.infohash();
  request.client = Endpoint{IpAddress(0x0E000002), 6881};
  request.numwant = 200;
  SimTime now = hours(1);
  for (auto _ : state) {
    if (now > days(29)) {
      now = hours(1);
      request.client.ip = IpAddress(request.client.ip.value() + 1);
    }
    request.now = now;
    now += gap;
    const AnnounceReply reply =
        decode_announce_reply(tracker.handle_get(to_query_string(request)));
    benchmark::DoNotOptimize(reply.peers.data());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_AnnounceRoundTripHttp)->Arg(100)->Arg(5000)->Arg(50000);

void BM_EncodeAnnounceReply(benchmark::State& state) {
  AnnounceReply reply;
  reply.ok = true;
  reply.interval = minutes(12);
  reply.complete = 17;
  reply.incomplete = 183;
  for (std::uint32_t i = 0; i < static_cast<std::uint32_t>(state.range(0)); ++i) {
    reply.peers.push_back(Endpoint{IpAddress(0x0D000000 + i),
                                   static_cast<std::uint16_t>(1024 + i)});
  }
  std::string buffer;
  std::int64_t bytes = 0;
  for (auto _ : state) {
    encode_announce_reply_into(reply, buffer);
    benchmark::DoNotOptimize(buffer.data());
    bytes += static_cast<std::int64_t>(buffer.size());
  }
  state.SetBytesProcessed(bytes);
}
BENCHMARK(BM_EncodeAnnounceReply)->Arg(50)->Arg(200);

void BM_SwarmSweepAdvance(benchmark::State& state) {
  Swarm swarm = make_swarm(50000);
  SimTime t = 0;
  for (auto _ : state) {
    t += minutes(12);
    if (t > days(29)) {
      t = 0;  // triggers the rebuild slow path once per wrap
    }
    benchmark::DoNotOptimize(swarm.counts_at(t));
  }
}
BENCHMARK(BM_SwarmSweepAdvance);

void BM_ReconstructSessions(benchmark::State& state) {
  std::vector<SimTime> sightings;
  Rng rng(2);
  SimTime t = 0;
  for (int i = 0; i < 2000; ++i) {
    t += minutes(10) + static_cast<SimDuration>(rng.uniform_int(0, minutes(20)));
    if (i % 50 == 49) t += hours(9);  // periodic offline gaps
    sightings.push_back(t);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        reconstruct_sessions(sightings, kSessionOfflineGap));
  }
}
BENCHMARK(BM_ReconstructSessions);

void BM_DiscoveryProbability(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(discovery_probability(50, 165, 13));
  }
}
BENCHMARK(BM_DiscoveryProbability);

// Parallel crawl throughput: full crawl of a quick-scenario ecosystem at
// 1/2/4/8 worker threads. The ecosystem is built once; each iteration
// resets the tracker's client state and re-runs the whole crawl. The
// resulting dataset is byte-identical at every thread count — only the
// wall time changes.
void BM_ParallelCrawlWindow(benchmark::State& state) {
  static Ecosystem* ecosystem = [] {
    auto* e = new Ecosystem(ScenarioConfig::quick(42));
    e->build();
    return e;
  }();
  CrawlerConfig config = ecosystem->config().crawler;
  config.threads = static_cast<std::size_t>(state.range(0));
  std::size_t torrents = 0;
  for (auto _ : state) {
    ecosystem->tracker().reset_state(42 ^ 0x7214CBull);
    Crawler crawler(ecosystem->portal(), ecosystem->tracker(),
                    ecosystem->network(), ecosystem->geo(), config,
                    42 ^ 0xC4A37E5ull);
    const Dataset dataset =
        crawler.crawl_window(0, ecosystem->config().window);
    torrents = dataset.torrent_count();
    benchmark::DoNotOptimize(dataset);
  }
  state.counters["torrents"] = static_cast<double>(torrents);
  state.counters["torrents/s"] = benchmark::Counter(
      static_cast<double>(torrents * state.iterations()),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ParallelCrawlWindow)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->MeasureProcessCPUTime()
    ->UseRealTime();

}  // namespace
}  // namespace btpub

BENCHMARK_MAIN();
