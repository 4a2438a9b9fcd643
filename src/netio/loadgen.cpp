#include "netio/loadgen.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <deque>
#include <optional>
#include <thread>
#include <vector>

#include "netio/serve.hpp"
#include "netio/socket.hpp"
#include "tracker/announce.hpp"
#include "tracker/udp.hpp"
#include "util/rng.hpp"

namespace btpub::netio {
namespace {

constexpr std::uint64_t kWorkerSeedTag = 0x6c6f6164'67656e31ULL;  // "loadgen1"

/// Synthetic client IPs rotated per worker via the announce `ip` field,
/// bounding the server's per-client rate-limiter state.
constexpr std::uint32_t kIpPool = 256;
/// Requests in flight on one keep-alive pipelined HTTP connection.
constexpr std::size_t kHttpPipeline = 8;

/// Slot ring for in-flight requests; transaction ids index it modulo size.
struct Pending {
  std::uint32_t tid = 0;
  std::int64_t send_ns = 0;
  bool active = false;
};

struct WorkerResult {
  std::uint64_t sent = 0;
  std::uint64_t received = 0;
  std::uint64_t errors = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t reconnects = 0;
  double elapsed = 0.0;
  LatencyHistogram hist;
  bool failed = false;
};

std::int64_t steady_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// BEP 15 connect handshake over a connected socket. Retries with a 250 ms
/// reply window; discards any stray (non-connect) datagrams it drains.
std::optional<std::uint64_t> udp_connect(int fd, std::uint32_t tid,
                                         std::string& buf) {
  UdpConnectRequest request{tid};
  for (int attempt = 0; attempt < 5; ++attempt) {
    request.encode_into(buf);
    if (send(fd, buf.data(), buf.size(), 0) < 0 && errno != EAGAIN &&
        errno != EWOULDBLOCK) {
      return std::nullopt;
    }
    pollfd p{fd, POLLIN, 0};
    if (poll(&p, 1, 250) <= 0) continue;
    char in[512];
    for (;;) {
      const ssize_t n = recv(fd, in, sizeof in, MSG_DONTWAIT);
      if (n < 0) break;
      const auto response =
          UdpConnectResponse::decode({in, static_cast<std::size_t>(n)});
      if (response && response->transaction_id == tid) {
        return response->connection_id;
      }
    }
  }
  return std::nullopt;
}

WorkerResult udp_worker(const LoadgenConfig& cfg, std::size_t worker,
                        const std::vector<Sha1Digest>& infohashes) {
  WorkerResult r;
  FdHandle fd = make_udp_client_socket(cfg.target_ip, cfg.udp_port);
  Rng rng(derive_seed(cfg.seed, kWorkerSeedTag, worker));
  std::string buf;

  // Control-plane transaction ids live in the top range so they can never
  // collide with announce sequence numbers within a run.
  std::uint32_t connect_tid =
      0xC0000000u | static_cast<std::uint32_t>(worker << 8);
  auto connection = udp_connect(fd.get(), connect_tid, buf);
  if (!connection) {
    r.failed = true;
    return r;
  }

  UdpAnnounceRequest req;
  req.connection_id = *connection;
  req.left = 0;
  req.event = 0;
  req.key = static_cast<std::uint32_t>(rng.next());
  req.num_want = cfg.numwant;
  req.port = 6881;
  const std::uint64_t id_seed = derive_seed(cfg.seed, kWorkerSeedTag, worker, 2);
  for (std::size_t i = 0; i < req.peer_id.size(); ++i) {
    req.peer_id[i] = static_cast<std::uint8_t>(id_seed >> ((i % 8) * 8));
  }

  const std::size_t nslots = std::max<std::size_t>(cfg.window * 2, 1024);
  std::vector<Pending> slots(nslots);
  std::size_t outstanding = 0;
  std::uint32_t seq = 0;

  const std::int64_t t0 = steady_ns();
  const std::int64_t deadline =
      t0 + static_cast<std::int64_t>(cfg.duration_seconds * 1e9);
  const double interval_ns = cfg.rate > 0.0 ? 1e9 / cfg.rate : 0.0;
  double next_send = static_cast<double>(t0);
  char in[2048];

  const auto quota_done = [&] {
    return cfg.max_requests != 0 && r.sent >= cfg.max_requests;
  };

  const auto send_one = [&] {
    req.transaction_id = seq;
    req.infohash = infohashes[rng.next() % infohashes.size()];
    req.ip = 0x0B000000u + (static_cast<std::uint32_t>(worker) << 16) +
             static_cast<std::uint32_t>(seq % kIpPool);
    req.encode_into(buf);
    while (send(fd.get(), buf.data(), buf.size(), 0) < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK || errno == ENOBUFS) {
        pollfd p{fd.get(), POLLOUT, 0};
        poll(&p, 1, 50);
        continue;
      }
      break;  // counted as sent; an unanswered slot ages into a timeout
    }
    Pending& slot = slots[seq % nslots];
    if (slot.active) {  // lapped an unanswered request
      ++r.timeouts;
      --outstanding;
    }
    slot = Pending{seq, steady_ns(), true};
    ++outstanding;
    ++r.sent;
    ++seq;
  };

  const auto handle_datagram = [&](std::string_view view) {
    const auto action = udp_response_action(view);
    const auto tid = udp_response_transaction_id(view);
    if (!action || !tid) return;
    if (*action == UdpAction::Error) {
      ++r.errors;
      const auto err = UdpErrorResponse::decode(view);
      if (err && err->message == "invalid connection id") {
        connect_tid += 1;
        if (const auto fresh = udp_connect(fd.get(), connect_tid, buf)) {
          req.connection_id = *fresh;
          ++r.reconnects;
        }
      }
    }
    Pending& slot = slots[*tid % nslots];
    if (slot.active && slot.tid == *tid) {
      slot.active = false;
      --outstanding;
      ++r.received;
      if (*action == UdpAction::Announce) {
        r.hist.record(static_cast<std::uint64_t>(
            std::max<std::int64_t>(0, steady_ns() - slot.send_ns)));
      }
    }
  };

  for (;;) {
    const std::int64_t now = steady_ns();
    if (now >= deadline) break;
    if (quota_done() && outstanding == 0) break;

    if (cfg.rate > 0.0) {
      // Open loop: the token clock never slips, so lateness shows up as
      // queueing delay in the histogram instead of reduced offered load.
      int burst = 0;
      while (next_send <= static_cast<double>(now) && burst < 128 &&
             !quota_done()) {
        send_one();
        next_send += interval_ns;
        ++burst;
      }
    } else {
      while (outstanding < cfg.window && !quota_done()) send_one();
    }

    int timeout_ms;
    if (cfg.rate > 0.0) {
      const double wait_ns = next_send - static_cast<double>(steady_ns());
      timeout_ms = static_cast<int>(
          std::clamp(wait_ns / 1e6, 0.0, 10.0));
    } else {
      timeout_ms = outstanding > 0 ? 100 : 0;
    }
    pollfd p{fd.get(), POLLIN, 0};
    const int pr = poll(&p, 1, timeout_ms);
    if (pr > 0) {
      for (;;) {
        const ssize_t n = recv(fd.get(), in, sizeof in, MSG_DONTWAIT);
        if (n < 0) break;
        handle_datagram({in, static_cast<std::size_t>(n)});
      }
    } else if (pr == 0 && cfg.rate == 0.0 && outstanding >= cfg.window) {
      // Full window and silence: age out requests older than a second so a
      // lossy path cannot wedge the worker.
      for (Pending& slot : slots) {
        if (slot.active && steady_ns() - slot.send_ns > 1'000'000'000) {
          slot.active = false;
          --outstanding;
          ++r.timeouts;
        }
      }
    }
  }

  // Grace drain for responses already in flight.
  const std::int64_t drain_until = steady_ns() + 100'000'000;
  while (outstanding > 0 && steady_ns() < drain_until) {
    pollfd p{fd.get(), POLLIN, 0};
    if (poll(&p, 1, 20) <= 0) continue;
    for (;;) {
      const ssize_t n = recv(fd.get(), in, sizeof in, MSG_DONTWAIT);
      if (n < 0) break;
      handle_datagram({in, static_cast<std::size_t>(n)});
    }
  }
  r.timeouts += outstanding;
  r.elapsed = static_cast<double>(steady_ns() - t0) / 1e9;
  return r;
}

WorkerResult http_worker(const LoadgenConfig& cfg, std::size_t worker,
                         const std::vector<Sha1Digest>& infohashes) {
  WorkerResult r;
  FdHandle fd = make_tcp_client_socket(cfg.target_ip, cfg.http_port);
  Rng rng(derive_seed(cfg.seed, kWorkerSeedTag, worker, 3));

  std::string out;
  std::string rx;
  std::deque<std::int64_t> send_times;
  char in[8192];

  const std::int64_t t0 = steady_ns();
  const std::int64_t deadline =
      t0 + static_cast<std::int64_t>(cfg.duration_seconds * 1e9);
  const auto quota_done = [&] {
    return cfg.max_requests != 0 && r.sent >= cfg.max_requests;
  };

  while (steady_ns() < deadline && !(quota_done() && send_times.empty())) {
    out.clear();
    while (send_times.size() < kHttpPipeline && !quota_done()) {
      AnnounceRequest announce;
      announce.infohash = infohashes[rng.next() % infohashes.size()];
      announce.client = Endpoint{
          IpAddress(0x0B000000u + (static_cast<std::uint32_t>(worker) << 16) +
                    static_cast<std::uint32_t>(r.sent % kIpPool)),
          6881};
      announce.numwant = cfg.numwant;
      announce.now = 0;  // daemon clock
      out += "GET " + to_query_string(announce) +
             " HTTP/1.1\r\nHost: loadgen\r\n\r\n";
      send_times.push_back(steady_ns());
      ++r.sent;
    }
    std::size_t off = 0;
    while (off < out.size()) {
      const ssize_t n = write(fd.get(), out.data() + off, out.size() - off);
      if (n < 0) {
        if (errno == EINTR) continue;
        r.timeouts += send_times.size();
        r.elapsed = static_cast<double>(steady_ns() - t0) / 1e9;
        return r;  // server went away
      }
      off += static_cast<std::size_t>(n);
    }

    // Read until every pipelined response of this batch is parsed.
    while (!send_times.empty() && steady_ns() < deadline) {
      const auto head_end = rx.find("\r\n\r\n");
      if (head_end == std::string::npos) {
        const ssize_t n = read(fd.get(), in, sizeof in);
        if (n <= 0) {
          if (n < 0 && errno == EINTR) continue;
          r.timeouts += send_times.size();
          r.elapsed = static_cast<double>(steady_ns() - t0) / 1e9;
          return r;
        }
        rx.append(in, static_cast<std::size_t>(n));
        continue;
      }
      const std::string_view head(rx.data(), head_end);
      std::size_t content_length = 0;
      if (const auto pos = head.find("Content-Length:");
          pos != std::string_view::npos) {
        content_length = static_cast<std::size_t>(
            std::strtoul(rx.c_str() + pos + 15, nullptr, 10));
      }
      const std::size_t total = head_end + 4 + content_length;
      if (rx.size() < total) {
        const ssize_t n = read(fd.get(), in, sizeof in);
        if (n <= 0) {
          if (n < 0 && errno == EINTR) continue;
          r.timeouts += send_times.size();
          r.elapsed = static_cast<double>(steady_ns() - t0) / 1e9;
          return r;
        }
        rx.append(in, static_cast<std::size_t>(n));
        continue;
      }
      const bool ok = head.size() >= 12 && head.substr(9, 3) == "200";
      if (!ok) ++r.errors;
      ++r.received;
      r.hist.record(static_cast<std::uint64_t>(
          std::max<std::int64_t>(0, steady_ns() - send_times.front())));
      send_times.pop_front();
      rx.erase(0, total);
    }
  }
  r.timeouts += send_times.size();
  r.elapsed = static_cast<double>(steady_ns() - t0) / 1e9;
  return r;
}

}  // namespace

LoadgenReport run_loadgen(const LoadgenConfig& config) {
  std::vector<Sha1Digest> infohashes;
  infohashes.reserve(config.swarms);
  for (std::size_t s = 0; s < config.swarms; ++s) {
    infohashes.push_back(serve_swarm_infohash(config.seed, s));
  }

  std::vector<WorkerResult> results(config.threads);
  std::vector<std::thread> threads;
  threads.reserve(config.threads);
  for (std::size_t w = 0; w < config.threads; ++w) {
    threads.emplace_back([&, w] {
      try {
        results[w] = config.use_http ? http_worker(config, w, infohashes)
                                     : udp_worker(config, w, infohashes);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "[btpub] loadgen worker %zu died: %s\n", w,
                     e.what());
        results[w].failed = true;
      }
    });
  }
  for (std::thread& t : threads) t.join();

  LoadgenReport report;
  for (const WorkerResult& r : results) {
    report.sent += r.sent;
    report.received += r.received;
    report.errors += r.errors;
    report.timeouts += r.timeouts;
    report.reconnects += r.reconnects;
    if (r.failed) ++report.errors;
    report.elapsed_seconds = std::max(report.elapsed_seconds, r.elapsed);
    report.histogram.merge(r.hist);
  }
  report.p50_ns = report.histogram.percentile_ns(0.50);
  report.p90_ns = report.histogram.percentile_ns(0.90);
  report.p99_ns = report.histogram.percentile_ns(0.99);
  return report;
}

}  // namespace btpub::netio
