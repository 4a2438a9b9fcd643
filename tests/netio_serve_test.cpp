// netio_serve_test — the multi-threaded daemon under real concurrent
// load: SO_REUSEPORT shards + multi-worker loadgen (the TSan job runs
// this), shard-replica consistency, duration/max-announce stopping, and
// bind-failure error reporting.
#include <string>
#include <system_error>

#include <gtest/gtest.h>

#include "netio/loadgen.hpp"
#include "netio/serve.hpp"

namespace btpub::netio {
namespace {

std::size_t test_threads() {
  if (const char* env = std::getenv("BTPUB_TEST_THREADS")) {
    const int n = std::atoi(env);
    if (n > 0) return static_cast<std::size_t>(n);
  }
  return 2;
}

ServeConfig small_world(std::size_t shards) {
  ServeConfig config;
  config.shards = shards;
  config.swarms = 4;
  config.peers_per_swarm = 100;
  config.seed = 7;
  return config;
}

TEST(NetioServe, MultiShardDaemonServesMultiThreadedLoad) {
  const std::size_t threads = test_threads();
  ServeConfig config = small_world(threads);
  ServeDaemon daemon(config);
  EXPECT_EQ(daemon.shard_count(), threads);
  daemon.start();

  LoadgenConfig load;
  load.udp_port = daemon.udp_port();
  load.threads = threads;
  load.duration_seconds = 5.0;       // bound, not target: quota stops first
  load.max_requests = 2000;          // per worker
  load.window = 16;
  load.seed = config.seed;
  load.swarms = config.swarms;
  load.numwant = 20;
  const LoadgenReport report = run_loadgen(load);

  daemon.request_stop();
  daemon.join();

  EXPECT_EQ(report.sent, 2000u * threads);
  EXPECT_EQ(report.errors, 0u);
  EXPECT_GT(report.received, 0u);
  EXPECT_GT(report.p50_ns, 0u);
  EXPECT_LE(report.p50_ns, report.p99_ns);

  const ServeStats stats = daemon.stats();
  EXPECT_EQ(stats.announces, report.sent);
  EXPECT_EQ(stats.connects, threads);
  EXPECT_EQ(stats.malformed, 0u);
  EXPECT_EQ(stats.announce_failures, 0u);
  // Graceful drain: everything that reached a socket was answered.
  EXPECT_EQ(stats.responses_tx, stats.datagrams_rx);
}

TEST(NetioServe, HttpAndUdpServeConcurrently) {
  ServeConfig config = small_world(2);
  ServeDaemon daemon(config);
  daemon.start();

  LoadgenConfig udp_load;
  udp_load.udp_port = daemon.udp_port();
  udp_load.threads = 1;
  udp_load.duration_seconds = 5.0;
  udp_load.max_requests = 500;
  udp_load.seed = config.seed;
  udp_load.swarms = config.swarms;

  LoadgenConfig http_load = udp_load;
  http_load.use_http = true;
  http_load.http_port = daemon.http_port();

  const LoadgenReport udp_report = run_loadgen(udp_load);
  const LoadgenReport http_report = run_loadgen(http_load);

  daemon.request_stop();
  daemon.join();

  EXPECT_EQ(udp_report.errors, 0u);
  EXPECT_EQ(http_report.errors, 0u);
  EXPECT_EQ(http_report.received, 500u);
  const ServeStats stats = daemon.stats();
  EXPECT_EQ(stats.announces, 500u);
  EXPECT_EQ(stats.http_announces, 500u);
}

TEST(NetioServe, DurationTimerStopsTheDaemon) {
  ServeConfig config = small_world(1);
  config.duration_seconds = 0.2;
  ServeDaemon daemon(config);
  // run() must return on its own: the timerfd fires, every shard drains.
  daemon.run();
  SUCCEED();
}

TEST(NetioServe, MaxAnnouncesStopsTheDaemon) {
  ServeConfig config = small_world(1);
  config.max_announces = 100;
  ServeDaemon daemon(config);
  daemon.start();

  LoadgenConfig load;
  load.udp_port = daemon.udp_port();
  load.threads = 1;
  // Pure duration bound: once the daemon stops itself at the quota the
  // remaining sends go unanswered, so a request quota would stall here.
  load.duration_seconds = 1.5;
  load.window = 8;
  load.seed = config.seed;
  load.swarms = config.swarms;
  run_loadgen(load);

  daemon.join();  // must have stopped itself at the announce quota
  EXPECT_GE(daemon.stats().announces, 100u);
}

TEST(NetioServe, BindFailureThrowsSystemErrorWithAddress) {
  ServeConfig config = small_world(1);
  config.bind_ip = "203.0.113.7";  // TEST-NET-3: not a local address
  config.udp_port = 18999;
  try {
    ServeDaemon daemon(config);
    FAIL() << "bind to a non-local address must throw";
  } catch (const std::system_error& e) {
    EXPECT_NE(std::string(e.what()).find("203.0.113.7:18999"),
              std::string::npos);
    EXPECT_NE(e.code().value(), 0);
  }
}

TEST(NetioServe, ReplicasAnswerIdenticallyAcrossShards) {
  // Two daemons with the same seed and a frozen clock are two replicas;
  // identical requests must produce identical worlds (scrape counts agree
  // for every swarm) — the invariant shard replication rests on.
  ServeConfig config = small_world(1);
  config.fixed_time = hours(2);
  const std::vector<Swarm> a = build_serve_world(config.seed, 4, 100);
  const std::vector<Swarm> b = build_serve_world(config.seed, 4, 100);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].infohash(), b[i].infohash());
    EXPECT_EQ(a[i].session_count(), b[i].session_count());
  }
}

}  // namespace
}  // namespace btpub::netio
