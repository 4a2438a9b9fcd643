#include "netio/serve.hpp"

#include <poll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/timerfd.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <chrono>
#include <cstdio>

#include "netio/buffer_ring.hpp"
#include "netio/event_loop.hpp"
#include "netio/http.hpp"
#include "tracker/udp_server.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace btpub::netio {
namespace {

// Event-loop tags for the shard's own fds; HTTP connection tags are heap
// pointers and never collide with these small integers.
constexpr std::uint64_t kUdpTag = 0;
constexpr std::uint64_t kStopTag = 1;
constexpr std::uint64_t kTimerTag = 2;
// (HttpAnnounceServer::kListenerTag == 3.)

/// BEP 15 requests are at least 16 bytes (connect header); anything
/// shorter is line noise and gets dropped instead of answered.
constexpr std::size_t kMinDatagramBytes = 16;

/// Batch geometry: 64 datagrams per recvmmsg round, 2048-byte slots (the
/// largest request, a 74-infohash scrape, is 1496 bytes; the largest
/// response, a 200-peer announce, is 1220).
constexpr std::size_t kBatchSlots = 64;
constexpr std::size_t kDatagramBytes = 2048;

/// Bounded rounds per epoll wake so a firehose client cannot starve the
/// stop eventfd or the HTTP path.
constexpr int kMaxRoundsPerWake = 16;

// derive_seed tags for the daemon's independent random streams.
constexpr std::uint64_t kTrackerSeedTag = 0x6e657453'65727665ULL;  // "netServe"
constexpr std::uint64_t kConnectionSeedTag = 0x6e657443'6f6e6e31ULL;

std::int64_t steady_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

Sha1Digest serve_swarm_infohash(std::uint64_t seed, std::size_t index) {
  return Sha1::hash("netio-serve/" + std::to_string(seed) + "/" +
                    std::to_string(index));
}

std::vector<Swarm> build_serve_world(std::uint64_t seed, std::size_t swarms,
                                     std::size_t peers_per_swarm) {
  std::vector<Swarm> world;
  world.reserve(swarms);
  for (std::size_t s = 0; s < swarms; ++s) {
    Swarm swarm(serve_swarm_infohash(seed, s), 1024, 0);
    swarm.reserve_sessions(peers_per_swarm);
    for (std::size_t i = 0; i < peers_per_swarm; ++i) {
      PeerSession session;
      // 10.s.x.x peers, distinct per swarm; every peer arrives inside the
      // first hour and stays a year, so any serve-time clock sees a fully
      // populated swarm.
      session.endpoint = Endpoint{
          IpAddress(0x0A000000u + static_cast<std::uint32_t>(s) * 0x10000u +
                    static_cast<std::uint32_t>(i % 0xFFFFu)),
          static_cast<std::uint16_t>(6881 + (i & 7))};
      session.arrive = static_cast<SimTime>(i % 3600);
      session.depart = days(365);
      if (i % 7 == 0) session.complete_at = session.arrive + hours(2);
      swarm.add_session(session);
    }
    swarm.finalize();
    world.push_back(std::move(swarm));
  }
  return world;
}

struct ServeDaemon::Shard {
  FdHandle udp_fd;
  std::vector<Swarm> world;
  std::unique_ptr<Tracker> tracker;
  std::unique_ptr<UdpTrackerEndpoint> endpoint;
  std::unique_ptr<HttpAnnounceServer> http;  // shard 0 only
  DatagramRing ring{kBatchSlots, kDatagramBytes};
  ServeStats stats;
  /// endpoint->stats().announces already folded into announce_total_.
  std::uint64_t announces_counted = 0;
};

ServeDaemon::ServeDaemon(ServeConfig config) : config_(std::move(config)) {
  shard_threads_ = resolve_threads(config_.shards);

  stop_fd_ = FdHandle(eventfd(0, EFD_NONBLOCK));
  if (!stop_fd_.valid()) throw_errno("eventfd", "");
  if (config_.duration_seconds > 0.0) {
    timer_fd_ = FdHandle(timerfd_create(CLOCK_MONOTONIC, TFD_NONBLOCK));
    if (!timer_fd_.valid()) throw_errno("timerfd_create", "");
  }

  shards_.reserve(shard_threads_);
  for (std::size_t i = 0; i < shard_threads_; ++i) {
    auto shard = std::make_unique<Shard>();
    // Shard 0 resolves an ephemeral port request; the rest join it.
    const std::uint16_t port = i == 0 ? config_.udp_port : udp_port_;
    shard->udp_fd = make_udp_shard_socket(config_.bind_ip, port,
                                          config_.so_rcvbuf, config_.so_sndbuf);
    if (i == 0) udp_port_ = local_port(shard->udp_fd.get());

    // Every replica is built from the same seeds: identical swarms,
    // identical enforced gap, identical sampling key — replies are
    // byte-identical across shards at equal query time.
    shard->world =
        build_serve_world(config_.seed, config_.swarms, config_.peers_per_swarm);
    TrackerConfig tracker_config;
    tracker_config.min_query_gap = config_.query_gap;
    tracker_config.max_query_gap = config_.query_gap;
    shard->tracker = std::make_unique<Tracker>(
        tracker_config, Rng(derive_seed(config_.seed, kTrackerSeedTag)));
    for (Swarm& swarm : shard->world) shard->tracker->host_swarm(swarm);
    shard->endpoint = std::make_unique<UdpTrackerEndpoint>(
        *shard->tracker, Rng(derive_seed(config_.seed, kConnectionSeedTag, i)));
    shards_.push_back(std::move(shard));
  }

  if (config_.enable_http) {
    FdHandle listener =
        make_tcp_listener(config_.bind_ip, config_.http_port, 128);
    http_port_ = local_port(listener.get());
    shards_[0]->http = std::make_unique<HttpAnnounceServer>(
        *shards_[0]->tracker, std::move(listener), [this] { return now(); });
  }
}

ServeDaemon::~ServeDaemon() {
  if (!threads_.empty()) {
    request_stop();
    join();
  }
}

SimTime ServeDaemon::now() const noexcept {
  if (config_.fixed_time) return *config_.fixed_time;
  // Hour 1 of simulated time is the first instant every serving-world peer
  // is present; the wall clock advances the sim clock 1:1 from there.
  if (start_ns_ == 0) return hours(1);
  return hours(1) + (steady_ns() - start_ns_) / 1'000'000'000;
}

void ServeDaemon::start() {
  start_ns_ = steady_ns();
  if (timer_fd_.valid()) {
    itimerspec spec{};
    spec.it_value.tv_sec = static_cast<time_t>(config_.duration_seconds);
    spec.it_value.tv_nsec = static_cast<long>(
        (config_.duration_seconds - static_cast<double>(spec.it_value.tv_sec)) *
        1e9);
    if (spec.it_value.tv_sec == 0 && spec.it_value.tv_nsec == 0) {
      spec.it_value.tv_nsec = 1;  // "expire immediately", not "disarm"
    }
    if (timerfd_settime(timer_fd_.get(), 0, &spec, nullptr) != 0) {
      throw_errno("timerfd_settime on fd", std::to_string(timer_fd_.get()));
    }
  }
  threads_.reserve(shard_threads_);
  for (std::size_t i = 0; i < shard_threads_; ++i) {
    threads_.emplace_back([this, i] {
      try {
        shard_main(i);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "[btpub] serve shard %zu died: %s\n", i, e.what());
        request_stop();
      }
    });
  }
}

void ServeDaemon::request_stop() noexcept {
  // A single write to an eventfd that is polled but never read: level-
  // triggered readiness wakes every shard, and the call is async-signal-
  // safe so the CLI's SIGINT/SIGTERM handler can call it directly.
  const std::uint64_t one = 1;
  [[maybe_unused]] const ssize_t n =
      ::write(stop_fd_.get(), &one, sizeof one);
}

void ServeDaemon::join() {
  for (std::thread& t : threads_) {
    if (t.joinable()) t.join();
  }
  threads_.clear();
}

void ServeDaemon::run() {
  start();
  join();
}

ServeStats ServeDaemon::stats() const {
  ServeStats total;
  for (const auto& shard : shards_) {
    const ServeStats& s = shard->stats;
    total.datagrams_rx += s.datagrams_rx;
    total.responses_tx += s.responses_tx;
    total.dropped_short += s.dropped_short;
    total.send_failures += s.send_failures;
    const UdpTrackerEndpoint::Stats& udp = shard->endpoint->stats();
    total.connects += udp.connects;
    total.announces += udp.announces;
    total.announce_failures += udp.announce_failures;
    total.scrapes += udp.scrapes;
    total.malformed += udp.malformed;
    if (shard->http) {
      const HttpStats& http = shard->http->stats();
      total.http_accepted += http.accepted;
      total.http_requests += http.requests;
      total.http_announces += http.announces;
      total.http_bad_requests += http.bad_requests + http.oversized;
    }
  }
  return total;
}

void ServeDaemon::shard_main(std::size_t index) {
  Shard& shard = *shards_[index];
  EventLoop loop;
  loop.add(shard.udp_fd.get(), EPOLLIN, kUdpTag);
  loop.add(stop_fd_.get(), EPOLLIN, kStopTag);
  if (index == 0) {
    if (timer_fd_.valid()) loop.add(timer_fd_.get(), EPOLLIN, kTimerTag);
    if (shard.http) shard.http->register_with(loop);
  }

  std::array<EventLoop::Ready, 64> ready;
  bool stop = false;
  while (!stop) {
    for (const EventLoop::Ready& ev : loop.wait(ready, -1)) {
      switch (ev.tag) {
        case kUdpTag:
          drain_udp(shard);
          break;
        case kStopTag:
          stop = true;
          break;
        case kTimerTag:
          request_stop();
          break;
        default:
          if (shard.http && shard.http->owns(ev.tag)) {
            shard.http->on_event(loop, ev.tag, ev.events);
          }
          break;
      }
    }
  }
  // Graceful drain: answer the batches that already reached the socket
  // queue, flush HTTP responses, then close.
  drain_udp(shard);
  if (shard.http) shard.http->close_all(loop);
  shard.udp_fd.reset();
}

void ServeDaemon::drain_udp(Shard& shard) {
  const int fd = shard.udp_fd.get();
  for (int round = 0; round < kMaxRoundsPerWake; ++round) {
    const int received = recvmmsg(fd, shard.ring.rx_headers(),
                                  static_cast<unsigned>(shard.ring.slots()),
                                  MSG_DONTWAIT, nullptr);
    if (received <= 0) break;  // EAGAIN: queue drained
    shard.stats.datagrams_rx += static_cast<std::uint64_t>(received);
    const SimTime t = now();

    std::size_t staged = 0;
    for (int i = 0; i < received; ++i) {
      const std::string_view datagram =
          shard.ring.rx_view(static_cast<std::size_t>(i));
      if (datagram.size() < kMinDatagramBytes) {
        ++shard.stats.dropped_short;
        continue;
      }
      const Endpoint from =
          from_sockaddr(shard.ring.rx_source(static_cast<std::size_t>(i)));
      std::string& out = shard.ring.tx_payload(staged);
      shard.endpoint->handle_into(datagram, from, t, out);
      shard.ring.stage_tx(staged, shard.ring.rx_source(static_cast<std::size_t>(i)));
      ++staged;
    }

    std::size_t sent = 0;
    while (sent < staged) {
      const int n = sendmmsg(fd, shard.ring.tx_headers() + sent,
                             static_cast<unsigned>(staged - sent), 0);
      if (n < 0) {
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK || errno == ENOBUFS) {
          pollfd p{fd, POLLOUT, 0};
          poll(&p, 1, 50);
          continue;
        }
        // Per-datagram failure (e.g. ECONNREFUSED bounced off loopback):
        // skip the poisoned slot, keep the rest of the batch.
        ++shard.stats.send_failures;
        ++sent;
        continue;
      }
      sent += static_cast<std::size_t>(n);
      shard.stats.responses_tx += static_cast<std::uint64_t>(n);
    }

    if (config_.max_announces != 0) {
      const std::uint64_t seen = shard.endpoint->stats().announces;
      const std::uint64_t delta = seen - shard.announces_counted;
      if (delta != 0) {
        shard.announces_counted = seen;
        if (announce_total_.fetch_add(delta, std::memory_order_relaxed) +
                delta >=
            config_.max_announces) {
          request_stop();
        }
      }
    }
    if (received < static_cast<int>(shard.ring.slots())) break;
  }
}

}  // namespace btpub::netio
