// netio_http_test — the HTTP/1.1 announce listener over real TCP framing:
// golden-bytes equivalence of socket-served bodies against the tests'
// handle_get (announce_support.hpp) and announce_into, keep-alive
// pipelining, and
// malformed framing (bad request lines, unsupported versions, oversized
// headers) answered with the right status and a closed connection; and
// the load generator's side of the framing, which rejects a reply whose
// Content-Length it cannot trust.
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "announce_support.hpp"
#include "netio/http.hpp"
#include "netio/loadgen.hpp"
#include "netio/serve.hpp"
#include "netio/socket.hpp"
#include "tracker/announce.hpp"
#include "tracker/tracker.hpp"
#include "util/rng.hpp"

namespace btpub::netio {
namespace {

constexpr std::uint64_t kSeed = 97;
constexpr std::size_t kSwarms = 4;
constexpr std::size_t kPeers = 200;
const SimTime kFrozen = hours(2);

ServeConfig test_config() {
  ServeConfig config;
  config.shards = 1;
  config.swarms = kSwarms;
  config.peers_per_swarm = kPeers;
  config.seed = kSeed;
  config.enable_http = true;
  config.fixed_time = kFrozen;
  return config;
}

struct ParsedResponse {
  int status = 0;
  std::string head;
  std::string body;
  bool keep_alive = false;
};

/// Blocking TCP client that frames responses by Content-Length.
class HttpClient {
 public:
  explicit HttpClient(std::uint16_t port)
      : fd_(make_tcp_client_socket("127.0.0.1", port)) {}

  void send_raw(std::string_view bytes) {
    std::size_t off = 0;
    while (off < bytes.size()) {
      const ssize_t n =
          write(fd_.get(), bytes.data() + off, bytes.size() - off);
      ASSERT_GT(n, 0);
      off += static_cast<std::size_t>(n);
    }
  }

  std::optional<ParsedResponse> read_response(int timeout_ms = 2000) {
    for (;;) {
      const auto head_end = rx_.find("\r\n\r\n");
      if (head_end != std::string::npos) {
        ParsedResponse response;
        response.head = rx_.substr(0, head_end);
        response.status = std::atoi(response.head.c_str() + 9);
        response.keep_alive =
            response.head.find("Connection: keep-alive") != std::string::npos;
        std::size_t content_length = 0;
        if (const auto pos = response.head.find("Content-Length:");
            pos != std::string::npos) {
          content_length = static_cast<std::size_t>(
              std::strtoul(response.head.c_str() + pos + 15, nullptr, 10));
        }
        const std::size_t total = head_end + 4 + content_length;
        if (rx_.size() >= total) {
          response.body = rx_.substr(head_end + 4, content_length);
          rx_.erase(0, total);
          return response;
        }
      }
      if (!fill(timeout_ms)) return std::nullopt;
    }
  }

  /// True when the server closed the connection (EOF).
  bool server_closed(int timeout_ms = 2000) {
    for (;;) {
      pollfd p{fd_.get(), POLLIN, 0};
      if (poll(&p, 1, timeout_ms) <= 0) return false;
      char buf[512];
      const ssize_t n = recv(fd_.get(), buf, sizeof buf, 0);
      if (n == 0) return true;
      if (n < 0) return errno != EAGAIN && errno != EWOULDBLOCK;
      rx_.append(buf, static_cast<std::size_t>(n));
    }
  }

 private:
  bool fill(int timeout_ms) {
    pollfd p{fd_.get(), POLLIN, 0};
    if (poll(&p, 1, timeout_ms) <= 0) return false;
    char buf[4096];
    const ssize_t n = read(fd_.get(), buf, sizeof buf);
    if (n <= 0) return false;
    rx_.append(buf, static_cast<std::size_t>(n));
    return true;
  }

  FdHandle fd_;
  std::string rx_;
};

struct LocalReplica {
  std::vector<Swarm> world;
  Tracker tracker;

  LocalReplica()
      : world(build_serve_world(kSeed, kSwarms, kPeers)),
        tracker(replica_config(),
                Rng(derive_seed(kSeed, 0x6e657453'65727665ULL))) {
    for (Swarm& swarm : world) tracker.host_swarm(swarm);
  }

  static TrackerConfig replica_config() {
    TrackerConfig config;
    config.min_query_gap = 0;
    config.max_query_gap = 0;
    return config;
  }
};

std::string announce_target(std::size_t swarm, std::uint32_t ip) {
  AnnounceRequest request;
  request.infohash = serve_swarm_infohash(kSeed, swarm);
  request.client = Endpoint{IpAddress(ip), 6881};
  request.numwant = 50;
  request.now = kFrozen;  // carried in-band via the crawler's t parameter
  return to_query_string(request);
}

TEST(NetioHttp, AnnounceBodyMatchesHandleGetAndFastPath) {
  ServeDaemon daemon(test_config());
  daemon.start();
  HttpClient client(daemon.http_port());
  LocalReplica replica;

  for (std::size_t s = 0; s < kSwarms; ++s) {
    const std::string target =
        announce_target(s, 0x0B040000u + static_cast<std::uint32_t>(s));
    client.send_raw("GET " + target + " HTTP/1.1\r\nHost: t\r\n\r\n");
    const auto response = client.read_response();
    ASSERT_TRUE(response.has_value());
    EXPECT_EQ(response->status, 200);
    EXPECT_TRUE(response->keep_alive);

    // handle_get's body is pinned by announce_fastpath_test's golden
    // bytes; the wire must match it and the announce_into fast path.
    EXPECT_EQ(response->body, handle_get(replica.tracker, target));

    AnnounceReply reply;
    Tracker::AnnounceScratch scratch;
    const auto parsed = parse_query_string(target);
    ASSERT_TRUE(parsed.has_value());
    replica.tracker.announce_into(*parsed, reply, scratch);
    std::string direct;
    encode_announce_reply_into(reply, direct);
    EXPECT_EQ(response->body, direct);
  }

  daemon.request_stop();
  daemon.join();
  EXPECT_EQ(daemon.stats().http_announces, kSwarms);
}

TEST(NetioHttp, PipelinedRequestsAnswerInOrderOverOneConnection) {
  ServeDaemon daemon(test_config());
  daemon.start();
  HttpClient client(daemon.http_port());
  LocalReplica replica;

  std::string burst;
  std::vector<std::string> targets;
  for (std::size_t i = 0; i < 5; ++i) {
    targets.push_back(
        announce_target(i % kSwarms, 0x0B050000u + static_cast<std::uint32_t>(i)));
    burst += "GET " + targets.back() + " HTTP/1.1\r\nHost: t\r\n\r\n";
  }
  client.send_raw(burst);
  for (const std::string& target : targets) {
    const auto response = client.read_response();
    ASSERT_TRUE(response.has_value());
    EXPECT_EQ(response->status, 200);
    EXPECT_EQ(response->body, handle_get(replica.tracker, target));
  }

  daemon.request_stop();
  daemon.join();
  const ServeStats stats = daemon.stats();
  EXPECT_EQ(stats.http_announces, 5u);
  EXPECT_EQ(stats.http_accepted, 1u);
}

TEST(NetioHttp, ScrapeMatchesTrackerScrape) {
  ServeDaemon daemon(test_config());
  daemon.start();
  HttpClient client(daemon.http_port());
  LocalReplica replica;

  const std::string hash_bytes(
      reinterpret_cast<const char*>(
          serve_swarm_infohash(kSeed, 0).bytes.data()),
      20);
  const std::string target = "/scrape?info_hash=" + url_escape(hash_bytes);
  client.send_raw("GET " + target + " HTTP/1.1\r\nHost: t\r\n\r\n");
  const auto response = client.read_response();
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->status, 200);
  EXPECT_EQ(response->body,
            replica.tracker.scrape(serve_swarm_infohash(kSeed, 0), kFrozen));

  daemon.request_stop();
  daemon.join();
}

TEST(NetioHttp, MalformedRequestLineGets400AndClose) {
  ServeDaemon daemon(test_config());
  daemon.start();
  {
    HttpClient client(daemon.http_port());
    client.send_raw("COMPLETE GARBAGE\r\n\r\n");
    const auto response = client.read_response();
    ASSERT_TRUE(response.has_value());
    EXPECT_EQ(response->status, 400);
    EXPECT_TRUE(client.server_closed());
  }
  {
    HttpClient client(daemon.http_port());
    client.send_raw("GET /announce HTTP/2.0\r\n\r\n");
    const auto response = client.read_response();
    ASSERT_TRUE(response.has_value());
    EXPECT_EQ(response->status, 505);
    EXPECT_TRUE(client.server_closed());
  }
  {
    HttpClient client(daemon.http_port());
    client.send_raw("POST /announce HTTP/1.1\r\nHost: t\r\n\r\n");
    const auto response = client.read_response();
    ASSERT_TRUE(response.has_value());
    EXPECT_EQ(response->status, 405);
  }
  {
    HttpClient client(daemon.http_port());
    client.send_raw("GET /nowhere HTTP/1.1\r\nHost: t\r\n\r\n");
    const auto response = client.read_response();
    ASSERT_TRUE(response.has_value());
    EXPECT_EQ(response->status, 404);
  }
  {
    HttpClient client(daemon.http_port());
    client.send_raw("GET /announce?info_hash=bogus HTTP/1.1\r\nHost: t\r\n\r\n");
    const auto response = client.read_response();
    ASSERT_TRUE(response.has_value());
    // Tracker convention: malformed announce queries get a bencoded
    // failure body with status 200, exactly like handle_get.
    LocalReplica replica;
    EXPECT_EQ(response->body,
              handle_get(replica.tracker, "/announce?info_hash=bogus"));
    EXPECT_EQ(response->status, 200);
    EXPECT_NE(response->body.find("malformed request"), std::string::npos);
  }
  daemon.request_stop();
  daemon.join();
  EXPECT_GE(daemon.stats().http_bad_requests, 3u);
}

TEST(NetioHttp, OversizedHeaderBlockGets431AndClose) {
  ServeDaemon daemon(test_config());
  daemon.start();
  HttpClient client(daemon.http_port());
  std::string huge = "GET /announce HTTP/1.1\r\n";
  huge += "X-Padding: " + std::string(HttpAnnounceServer::kMaxHeaderBytes, 'x');
  client.send_raw(huge);  // no terminating CRLFCRLF: cap triggers first
  const auto response = client.read_response();
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->status, 431);
  EXPECT_TRUE(client.server_closed());
  daemon.request_stop();
  daemon.join();
  EXPECT_EQ(daemon.stats().http_bad_requests, 1u);
}

/// Runs one loadgen HTTP worker, capped at one request, against a
/// one-connection TCP server that answers it with `response` and then
/// waits for the worker to hang up.
LoadgenReport loadgen_against_scripted_reply(const std::string& response) {
  FdHandle listener = make_tcp_listener("127.0.0.1", 0, 1);
  std::jthread server([&] {
    pollfd p{listener.get(), POLLIN, 0};
    if (poll(&p, 1, 5000) <= 0) return;
    // On Linux an accepted socket does not inherit the listener's
    // O_NONBLOCK, so the reads and writes below block.
    FdHandle conn(accept(listener.get(), nullptr, nullptr));
    if (!conn.valid()) return;
    std::string rx;
    char buf[4096];
    while (rx.find("\r\n\r\n") == std::string::npos) {
      const ssize_t n = read(conn.get(), buf, sizeof buf);
      if (n <= 0) return;
      rx.append(buf, static_cast<std::size_t>(n));
    }
    std::size_t off = 0;
    while (off < response.size()) {
      const ssize_t n =
          write(conn.get(), response.data() + off, response.size() - off);
      if (n <= 0) return;
      off += static_cast<std::size_t>(n);
    }
    while (read(conn.get(), buf, sizeof buf) > 0) {
    }
  });
  LoadgenConfig config;
  config.use_http = true;
  config.http_port = local_port(listener.get());
  config.threads = 1;
  config.max_requests = 1;
  config.duration_seconds = 3.0;
  config.swarms = 1;
  return run_loadgen(config);  // the server joins on return
}

TEST(NetioHttp, LoadgenRejectsUntrustedContentLength) {
  // A non-numeric length must not read as 0, and one past UINT64_MAX must
  // not saturate and wrap the framing arithmetic: each is an error that
  // ends the connection, never a received reply.
  for (const char* length : {"abc", "18446744073709551616"}) {
    const LoadgenReport report = loadgen_against_scripted_reply(
        std::string("HTTP/1.1 200 OK\r\nContent-Length: ") + length +
        "\r\n\r\n");
    EXPECT_EQ(report.sent, 1u) << length;
    EXPECT_EQ(report.errors, 1u) << length;
    EXPECT_EQ(report.received, 0u) << length;
  }
}

}  // namespace
}  // namespace btpub::netio
