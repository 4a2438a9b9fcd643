// serve_udp — one ServeDaemon shard on loopback with a frozen serving
// clock, driven by a single-threaded open-loop client at a fixed rate.
//
// The client sends request i at its due time start + i / rate whether or
// not earlier replies came back, and times every reply exactly from that
// due time, so a stall on either side shows as latency of the requests
// queued behind it. A request fails only when no reply arrives within 1 s.
//
// The stream is a sequence of rounds, each what one monitoring client
// sends the tracker per query gap (perfbench/README.md gives the basis of
// every number): a connect, one announce (numwant 50) to each of the 64
// served swarms in a seeded order, one announce for an infohash the
// tracker does not host (the error path) and one scrape of all 64 swarms.
// Each announce states its own client IP from a large pool, so the
// tracker's per-client state grows during the run.
//
// After the run the identical datagram stream is replayed in-process
// through UdpTrackerEndpoint::handle_into; both reply digests must agree.
// Traced runs also replay it stage by stage (decode, announce_into,
// scrape, encode) to split the server's per-request cost.
#include <sys/socket.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <cstring>
#include <optional>
#include <stdexcept>
#include <string_view>
#include <vector>

#include "common.hpp"
#include "netio/serve.hpp"
#include "netio/socket.hpp"
#include "tracker/udp.hpp"
#include "tracker/udp_server.hpp"
#include "util/rng.hpp"

namespace perfbench {

using namespace btpub;

namespace {

constexpr double kRate = 40'000;  // requests per second, open loop
constexpr std::int64_t kTimeoutNs = 1'000'000'000;
constexpr std::size_t kSwarms = 64;
constexpr std::size_t kPeersPerSwarm = 2000;
/// BEP 3's usual default for clients that do not ask for a count.
constexpr std::uint32_t kNumwant = 50;
/// BitTorrent's conventional listening port; the UDP server keys a
/// client on the announced IP, so the port carries no information here.
constexpr std::uint16_t kClientPort = 6881;
/// Per round: connect, kSwarms announces, one unknown-infohash announce,
/// one scrape of every served swarm (BEP 15 allows up to 74 per request).
constexpr std::size_t kRoundSize = kSwarms + 3;
constexpr std::size_t kRounds = 1500;
/// About 95% of the stream's announces state an IP the tracker has not
/// seen yet, so its per-client state grows for the whole run.
constexpr std::uint32_t kClientPool = 1u << 20;
constexpr SimTime kServeTime = hours(2);
constexpr std::uint64_t kTagRequests = 0x70b0ad9a;
/// Seeds of the in-process replica's tracker and connection ids. They
/// need not match the daemon's: the digest leaves out every reply byte
/// that depends on them (connection ids and which swarm members a peer
/// sample picks).
constexpr std::uint64_t kTagReplicaTracker = 0x70b07eac;
constexpr std::uint64_t kTagReplicaConnections = 0x70b0c1d5;
/// Transaction id of the handshake connect that precedes the stream.
constexpr std::uint32_t kHandshakeTid = 0xFFFFFFFFu;
/// Swarm index of requests that address no single served swarm.
constexpr std::int32_t kNoSwarm = -1;

/// The request stream: datagram bytes back to back, with the connection
/// id field of announces and scrapes patched at send time.
struct Stream {
  std::string bytes;
  std::vector<std::uint32_t> offset;  // size() + 1 entries
  std::vector<UdpAction> action;
  /// Served swarm an announce addresses, kNoSwarm otherwise.
  std::vector<std::int32_t> swarm;

  std::size_t size() const noexcept { return action.size(); }
  std::string_view datagram(std::size_t i) const {
    return std::string_view(bytes).substr(offset[i], offset[i + 1] - offset[i]);
  }
  char* data(std::size_t i) { return bytes.data() + offset[i]; }
};

Stream make_stream(std::uint64_t seed) {
  Stream s;
  s.offset.push_back(0);
  std::string buf;
  Rng rng(derive_seed(seed, kTagRequests));
  std::vector<std::int32_t> order(kSwarms);
  std::uint32_t tid = 0;
  auto push = [&](UdpAction action, std::int32_t swarm) {
    s.bytes += buf;
    s.offset.push_back(static_cast<std::uint32_t>(s.bytes.size()));
    s.action.push_back(action);
    s.swarm.push_back(swarm);
    ++tid;
  };
  auto announce = [&](const Sha1Digest& infohash, std::int32_t swarm) {
    UdpAnnounceRequest req;
    req.transaction_id = tid;
    req.infohash = infohash;
    req.ip = 0x0B000000u + static_cast<std::uint32_t>(rng.uniform_int(0, kClientPool - 1));
    req.num_want = kNumwant;
    req.port = kClientPort;
    req.encode_into(buf);
    push(UdpAction::Announce, swarm);
  };
  for (std::size_t round = 0; round < kRounds; ++round) {
    UdpConnectRequest{tid}.encode_into(buf);
    push(UdpAction::Connect, kNoSwarm);
    for (std::size_t k = 0; k < kSwarms; ++k) order[k] = static_cast<std::int32_t>(k);
    rng.shuffle(order);
    for (const std::int32_t swarm : order) {
      announce(netio::serve_swarm_infohash(seed, static_cast<std::size_t>(swarm)), swarm);
    }
    announce(Sha1::hash("perfbench/unknown/" + std::to_string(round)), kNoSwarm);
    UdpScrapeRequest scrape;
    scrape.transaction_id = tid;
    for (std::size_t k = 0; k < kSwarms; ++k) {
      scrape.infohashes.push_back(netio::serve_swarm_infohash(seed, k));
    }
    scrape.encode_into(buf);
    push(UdpAction::Scrape, kNoSwarm);
  }
  return s;
}

void put_connection_id(char* datagram, std::uint64_t id) {
  for (int k = 7; k >= 0; --k) {
    datagram[k] = static_cast<char>(id & 0xff);
    id >>= 8;
  }
}

/// Every (swarm, peer endpoint) the served world holds, in a flat
/// open-addressing table: the client checks each wire reply's peers
/// between sends, so a lookup must cost about one cache miss.
class Members {
 public:
  explicit Members(std::uint64_t seed) {
    const std::vector<Swarm> world =
        netio::build_serve_world(seed, kSwarms, kPeersPerSwarm);
    slots_.assign(std::size_t{1} << kBits, 0);
    for (std::size_t k = 0; k < world.size(); ++k) {
      for (const PeerSession& s : world[k].sessions()) {
        const std::uint64_t want =
            key(static_cast<std::int32_t>(k), s.endpoint.ip.value(), s.endpoint.port);
        std::size_t at = slot(want);
        while (slots_[at] != 0 && slots_[at] != want) at = (at + 1) & kMask;
        slots_[at] = want;
      }
    }
  }
  bool contains(std::int32_t swarm, std::uint32_t ip, std::uint16_t port) const {
    const std::uint64_t want = key(swarm, ip, port);
    for (std::size_t at = slot(want);; at = (at + 1) & kMask) {
      if (slots_[at] == want) return true;
      if (slots_[at] == 0) return false;
    }
  }

 private:
  // 2^19 slots for kSwarms * kPeersPerSwarm = 128,000 keys: load 0.24.
  static constexpr int kBits = 19;
  static constexpr std::size_t kMask = (std::size_t{1} << kBits) - 1;
  /// Never 0, which marks an empty slot.
  static std::uint64_t key(std::int32_t swarm, std::uint32_t ip, std::uint16_t port) {
    return std::uint64_t{1} << 63 | static_cast<std::uint64_t>(swarm) << 48 |
           static_cast<std::uint64_t>(ip) << 16 | port;
  }
  static std::size_t slot(std::uint64_t key) {
    return static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ull) >> (64 - kBits));
  }
  std::vector<std::uint64_t> slots_;
};

std::uint32_t be32(std::string_view b, std::size_t at) {
  return static_cast<std::uint32_t>(static_cast<std::uint8_t>(b[at])) << 24 |
         static_cast<std::uint32_t>(static_cast<std::uint8_t>(b[at + 1])) << 16 |
         static_cast<std::uint32_t>(static_cast<std::uint8_t>(b[at + 2])) << 8 |
         static_cast<std::uint32_t>(static_cast<std::uint8_t>(b[at + 3]));
}

/// Hash of the reply bytes that do not depend on the server's private
/// random streams. Connect replies: action and transaction id. Announce
/// replies (BEP 15: 20-byte header, then 6 bytes per peer): the header,
/// the peer count and how many peers are not members of the announced
/// swarm, which is added to `strangers`. Scrape and error replies: every
/// byte.
std::uint64_t reply_hash(std::string_view reply, std::int32_t swarm,
                         const Members& members, std::uint64_t& strangers) {
  Digest d;
  const auto action = udp_response_action(reply);
  if (action == UdpAction::Connect) {
    d.str(reply.substr(0, 8));
  } else if (action == UdpAction::Announce && reply.size() >= 20) {
    std::uint64_t outside = 0;
    for (std::size_t at = 20; at + 6 <= reply.size(); at += 6) {
      const auto port = static_cast<std::uint16_t>(
          static_cast<std::uint8_t>(reply[at + 4]) << 8 |
          static_cast<std::uint8_t>(reply[at + 5]));
      if (!members.contains(swarm, be32(reply, at), port)) ++outside;
    }
    d.str(reply.substr(0, 20));
    d.u64((reply.size() - 20) / 6);
    d.u64(outside);
    strangers += outside;
  } else {
    d.str(reply);
  }
  return d.h;
}

double percentile(std::vector<std::int64_t>& v, double q) {
  if (v.empty()) return 0.0;
  const auto k = static_cast<std::size_t>(q * static_cast<double>(v.size() - 1));
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k), v.end());
  return static_cast<double>(v[k]);
}

/// An in-process replica of the daemon's shard 0: the same world and
/// tracker configuration (query gap 0, as in ServeConfig's default).
struct Replica {
  std::vector<Swarm> world;
  Tracker tracker;
  UdpTrackerEndpoint endpoint;

  explicit Replica(std::uint64_t seed)
      : world(netio::build_serve_world(seed, kSwarms, kPeersPerSwarm)),
        tracker(TrackerConfig{.min_query_gap = 0, .max_query_gap = 0},
                Rng(derive_seed(seed, kTagReplicaTracker))),
        endpoint(tracker, Rng(derive_seed(seed, kTagReplicaConnections))) {
    for (Swarm& swarm : world) tracker.host_swarm(swarm);
  }
};

struct StageTimes {
  std::int64_t decode_ns = 0;
  std::int64_t announce_ns = 0;
  std::int64_t scrape_ns = 0;
  std::int64_t encode_ns = 0;
  std::uint64_t announces = 0;
  std::uint64_t scrapes = 0;
  std::uint64_t replies = 0;
};

/// Replays announces and scrapes through the codec and the tracker one
/// stage at a time (connects go through the endpoint, which owns the
/// connection table). Returns the reply digest.
std::uint64_t replay_by_stage(Replica& replica, const std::string& handshake,
                              const Stream& stream, const Members& members,
                              const Endpoint& from, StageTimes& times) {
  std::string out;
  AnnounceReply reply;
  Tracker::AnnounceScratch scratch;
  UdpScrapeResponse scrape_reply;
  // Cost of one clock read, subtracted from every stage sample.
  const std::int64_t t_cal = now_ns();
  for (int k = 0; k < 10000; ++k) now_ns();
  const std::int64_t overhead = (now_ns() - t_cal) / 10000;

  std::uint64_t strangers = 0;
  replica.endpoint.handle_into(handshake, from, kServeTime, out);
  std::uint64_t digest = reply_hash(out, kNoSwarm, members, strangers);
  for (std::size_t i = 0; i < stream.size(); ++i) {
    const std::string_view dg = stream.datagram(i);
    const auto tid = static_cast<std::uint32_t>(i);
    if (stream.action[i] == UdpAction::Connect) {
      replica.endpoint.handle_into(dg, from, kServeTime, out);
    } else if (stream.action[i] == UdpAction::Announce) {
      const std::int64_t t0 = now_ns();
      const auto req = UdpAnnounceRequest::decode(dg);
      const std::int64_t t1 = now_ns();
      if (!req) return 0;
      AnnounceRequest request;
      request.infohash = req->infohash;
      request.client.ip = req->ip != 0 ? IpAddress(req->ip) : from.ip;
      request.client.port = req->port;
      request.numwant = req->num_want == ~0u ? replica.tracker.config().max_numwant
                                              : req->num_want;
      request.now = kServeTime;
      replica.tracker.announce_into(request, reply, scratch);
      const std::int64_t t2 = now_ns();
      if (reply.ok) {
        UdpTrackerEndpoint::encode_announce_response_into(tid, reply, out);
      } else {
        UdpErrorResponse{tid, reply.failure_reason}.encode_into(out);
      }
      const std::int64_t t3 = now_ns();
      times.decode_ns += t1 - t0 - overhead;
      times.announce_ns += t2 - t1 - overhead;
      times.encode_ns += t3 - t2 - overhead;
      ++times.announces;
    } else {
      const std::int64_t t0 = now_ns();
      const auto req = UdpScrapeRequest::decode(dg);
      const std::int64_t t1 = now_ns();
      if (!req) return 0;
      scrape_reply.transaction_id = tid;
      scrape_reply.entries.clear();
      for (const Sha1Digest& infohash : req->infohashes) {
        UdpScrapeEntry entry;
        if (const auto counts = replica.tracker.scrape_counts(infohash, kServeTime)) {
          entry.seeders = counts->complete;
          entry.completed = counts->downloaded;
          entry.leechers = counts->incomplete;
        }
        scrape_reply.entries.push_back(entry);
      }
      const std::int64_t t2 = now_ns();
      scrape_reply.encode_into(out);
      const std::int64_t t3 = now_ns();
      times.decode_ns += t1 - t0 - overhead;
      times.scrape_ns += t2 - t1 - overhead;
      times.encode_ns += t3 - t2 - overhead;
      ++times.scrapes;
    }
    ++times.replies;
    digest += reply_hash(out, stream.swarm[i], members, strangers);
  }
  return digest;
}

}  // namespace

Report run_serve_udp(const Options& options) {
  Report report;
  Tracer tracer(options.trace);
  const std::int64_t t_setup = now_ns();
  netio::ServeConfig config;
  config.enable_http = false;
  config.shards = 1;
  config.swarms = kSwarms;
  config.peers_per_swarm = kPeersPerSwarm;
  config.seed = options.seed;
  config.fixed_time = kServeTime;
  config.so_rcvbuf = 1 << 23;
  config.so_sndbuf = 1 << 23;
  netio::ServeDaemon daemon(config);
  Stream stream = make_stream(options.seed);
  const Members members(options.seed);
  netio::FdHandle fd = netio::make_udp_client_socket("127.0.0.1", daemon.udp_port());
  const int buf_bytes = 1 << 23;
  setsockopt(fd.get(), SOL_SOCKET, SO_RCVBUF, &buf_bytes, sizeof buf_bytes);
  setsockopt(fd.get(), SOL_SOCKET, SO_SNDBUF, &buf_bytes, sizeof buf_bytes);
  daemon.start();

  // Handshake: the stream's announces need a connection id up front. It
  // is sent once (loopback with 8 MiB buffers does not drop it), so the
  // daemon's connection table sees exactly the replayed sequence.
  std::string handshake;
  UdpConnectRequest{kHandshakeTid}.encode_into(handshake);
  std::uint64_t strangers = 0;
  std::uint64_t digest = 0;
  std::uint64_t connection_id = 0;
  {
    if (send(fd.get(), handshake.data(), handshake.size(), 0) < 0) {
      throw std::runtime_error("serve_udp: handshake send failed");
    }
    char reply[64];
    bool connected = false;
    const std::int64_t deadline = now_ns() + kTimeoutNs;
    while (!connected && now_ns() < deadline) {
      const ssize_t n = recv(fd.get(), reply, sizeof reply, MSG_DONTWAIT);
      if (n <= 0) continue;
      const std::string_view dg(reply, static_cast<std::size_t>(n));
      const auto res = UdpConnectResponse::decode(dg);
      if (res && res->transaction_id == kHandshakeTid) {
        connection_id = res->connection_id;
        digest += reply_hash(dg, kNoSwarm, members, strangers);
        connected = true;
      }
    }
    if (!connected) throw std::runtime_error("serve_udp: connect handshake timed out");
  }
  report.setup_s = static_cast<double>(now_ns() - t_setup) * 1e-9;

  // ---- The open-loop job. ----
  const std::size_t n = stream.size();
  std::vector<std::int64_t> latency(n, -1);
  std::vector<std::int64_t> lag;
  lag.reserve(n);
  constexpr std::size_t kBatch = 64;
  std::vector<std::array<char, 2048>> rx(kBatch);
  std::vector<iovec> iov(kBatch);
  std::vector<mmsghdr> msgs(kBatch);
  for (std::size_t k = 0; k < kBatch; ++k) {
    iov[k] = {rx[k].data(), rx[k].size()};
    msgs[k] = {};
    msgs[k].msg_hdr.msg_iov = &iov[k];
    msgs[k].msg_hdr.msg_iovlen = 1;
  }
  const bool rss_reset = reset_peak_rss();
  const double period_ns = 1e9 / kRate;
  const double cpu0 = process_cpu_s();
  const double client_cpu0 = thread_cpu_s();
  const std::int64_t start = now_ns() + 1'000'000;
  auto due = [&](std::size_t i) {
    return start + static_cast<std::int64_t>(static_cast<double>(i) * period_ns);
  };
  std::size_t next = 0;
  std::size_t answered = 0;
  std::uint64_t late = 0;
  std::int64_t last_reply = start;
  const std::int64_t give_up = due(n - 1) + kTimeoutNs;
  std::optional<Tracer::Scope> open_loop(std::in_place, &tracer, "netio.open_loop");
  while (answered < n) {
    std::int64_t t = now_ns();
    if (t > give_up) break;
    while (next < n && due(next) <= t) {
      if (stream.action[next] != UdpAction::Connect) {
        put_connection_id(stream.data(next), connection_id);
      }
      const std::string_view dg = stream.datagram(next);
      if (send(fd.get(), dg.data(), dg.size(), 0) < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK || errno == ENOBUFS) break;
        throw std::runtime_error("serve_udp: send failed");
      }
      lag.push_back(t - due(next));
      ++next;
      t = now_ns();
    }
    const int got = recvmmsg(fd.get(), msgs.data(), kBatch, MSG_DONTWAIT, nullptr);
    if (got <= 0) continue;
    const std::int64_t t_rx = now_ns();
    for (int k = 0; k < got; ++k) {
      const std::string_view dg(rx[static_cast<std::size_t>(k)].data(),
                                msgs[static_cast<std::size_t>(k)].msg_len);
      const auto tid = udp_response_transaction_id(dg);
      if (!tid || *tid >= n || latency[*tid] >= 0) continue;
      latency[*tid] = t_rx - due(*tid);
      if (latency[*tid] > kTimeoutNs) ++late;
      ++answered;
      last_reply = t_rx;
      digest += reply_hash(dg, stream.swarm[*tid], members, strangers);
      if (udp_response_action(dg) == UdpAction::Connect) {
        if (const auto res = UdpConnectResponse::decode(dg)) {
          connection_id = res->connection_id;
        }
      }
    }
  }
  open_loop.reset();
  const double client_cpu = thread_cpu_s() - client_cpu0;
  const double server_cpu = process_cpu_s() - cpu0 - client_cpu;
  report.job_s = static_cast<double>(last_reply - start) * 1e-9;
  report.cpu_s = server_cpu;
  report.peak_rss_mb = peak_rss_mb();
  daemon.request_stop();
  daemon.join();

  const std::uint64_t timeouts = (n - answered) + late;
  const std::uint64_t completed = answered - late;
  std::vector<std::int64_t> all;
  std::vector<std::int64_t> announces;
  all.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (latency[i] < 0) continue;
    all.push_back(latency[i]);
    if (stream.action[i] == UdpAction::Announce) announces.push_back(latency[i]);
  }
  report.announce_p50_us = percentile(announces, 0.5) * 1e-3;
  report.server_cpu_us_per_req =
      server_cpu * 1e6 / static_cast<double>(std::max<std::uint64_t>(completed, 1));
  report.attempted = n;
  report.failed = timeouts;

  // ---- Correctness: the same stream, in process, through handle_into. ----
  const Endpoint from{IpAddress(0x7F000001u), 0};
  std::uint64_t replay_strangers = 0;
  std::uint64_t replay_digest = 0;
  std::int64_t replay_ns = 0;
  {
    auto span = tracer.span("tracker.replay");
    // Like the wire client, the replay stamps each request with the
    // latest connection id its replica issued.
    Replica replica(options.seed);
    std::string out;
    std::string request;
    const std::int64_t t0 = now_ns();
    replica.endpoint.handle_into(handshake, from, kServeTime, out);
    replay_digest += reply_hash(out, kNoSwarm, members, replay_strangers);
    std::uint64_t replay_connection_id = UdpConnectResponse::decode(out)->connection_id;
    for (std::size_t i = 0; i < n; ++i) {
      request.assign(stream.datagram(i));
      if (stream.action[i] != UdpAction::Connect) {
        put_connection_id(request.data(), replay_connection_id);
      }
      replica.endpoint.handle_into(request, from, kServeTime, out);
      replay_digest += reply_hash(out, stream.swarm[i], members, replay_strangers);
      if (stream.action[i] == UdpAction::Connect) {
        replay_connection_id = UdpConnectResponse::decode(out)->connection_id;
      }
    }
    replay_ns = now_ns() - t0;
  }
  report.gate(rss_reset, "peak-RSS reset refused by the kernel");
  report.gate(timeouts > 0 || digest == replay_digest,
              "wire replies differ from the in-process replay");
  report.gate(strangers == 0 && replay_strangers == 0,
              "announce replies list peers outside the announced swarm");
  report.digest = replay_digest;

  if (options.trace) {
    auto span = tracer.span("tracker.replay_by_stage");
    Replica replica(options.seed);
    StageTimes times;
    const std::uint64_t staged = replay_by_stage(replica, handshake, stream, members, from, times);
    report.gate(staged == replay_digest,
                "stage-by-stage replay differs from handle_into");
    const double server_ns = server_cpu * 1e9 / static_cast<double>(n);
    const double inprocess_ns = static_cast<double>(replay_ns) / static_cast<double>(n);
    const auto per = [](std::int64_t ns, std::uint64_t count) {
      return count > 0 ? static_cast<double>(ns) / static_cast<double>(count) : 0.0;
    };
    report.layers["tracker.udp_decode_ns"] =
        per(times.decode_ns, times.announces + times.scrapes);
    report.layers["tracker.announce_into_ns"] = per(times.announce_ns, times.announces);
    report.layers["tracker.scrape_ns"] = per(times.scrape_ns, times.scrapes);
    report.layers["tracker.udp_encode_ns"] = per(times.encode_ns, times.replies);
    report.layers["netio.syscall_share"] = 1.0 - inprocess_ns / server_ns;
    report.layers["netio.rtt_p90_us"] = percentile(all, 0.9) * 1e-3;
    report.layers["netio.rtt_p99_us"] = percentile(all, 0.99) * 1e-3;
    report.layers["netio.generator_lag_us"] = percentile(lag, 0.99) * 1e-3;
    report.layers["netio.timeouts"] = static_cast<double>(timeouts);
  }
  export_trace(tracer, options, report);
  return report;
}

}  // namespace perfbench
