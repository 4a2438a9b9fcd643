// http.hpp — minimal HTTP/1.1 announce + scrape listener for the serving
// daemon. Wire framing only: nonblocking accept, bounded header parsing,
// keep-alive and pipelining; the response *bodies* come from the exact
// same view-based query parser and announce_into fast path the simulated
// tracker uses, so a socket-served announce is byte-identical to an
// in-process announce_into of the parsed query (a tested invariant — see
// netio_http_test).
//
// The listener and every connection live on one serving shard's event
// loop (shard 0); HTTP is the compatibility path, UDP the throughput path,
// so a single thread is deliberate.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>

#include "netio/event_loop.hpp"
#include "netio/socket.hpp"
#include "tracker/tracker.hpp"

namespace btpub::netio {

struct HttpStats {
  std::uint64_t accepted = 0;
  std::uint64_t requests = 0;        // well-framed requests routed
  std::uint64_t announces = 0;
  std::uint64_t scrapes = 0;
  std::uint64_t bad_requests = 0;    // malformed framing (4xx)
  std::uint64_t oversized = 0;       // header block over the cap (431)
  std::uint64_t closed = 0;
};

class HttpAnnounceServer {
 public:
  /// Largest accepted request head (request line + headers + CRLFCRLF).
  static constexpr std::size_t kMaxHeaderBytes = 8192;

  /// `now_fn` supplies the serve-time clock for requests that do not carry
  /// the in-band `t` query parameter.
  HttpAnnounceServer(Tracker& tracker, FdHandle listener,
                     std::function<SimTime()> now_fn);
  ~HttpAnnounceServer();

  HttpAnnounceServer(const HttpAnnounceServer&) = delete;
  HttpAnnounceServer& operator=(const HttpAnnounceServer&) = delete;

  /// Registers the listener on the shard's loop under kListenerTag.
  void register_with(EventLoop& loop);

  /// True when `tag` belongs to this server (listener or a connection).
  bool owns(std::uint64_t tag) const;

  /// Dispatches one readiness event for an owned tag.
  void on_event(EventLoop& loop, std::uint64_t tag, std::uint32_t events);

  /// Graceful drain: best-effort flush of staged responses, then closes
  /// every connection and the listener.
  void close_all(EventLoop& loop);

  const HttpStats& stats() const noexcept { return stats_; }

  /// Event-loop tag for the listener fd. Connection tags are heap pointers
  /// (always > kListenerTag, which the shard reserves among its small
  /// integer tags).
  static constexpr std::uint64_t kListenerTag = 3;

 private:
  struct Conn {
    FdHandle fd;
    std::string rx;
    std::string tx;
    std::size_t tx_off = 0;
    bool close_after = false;
    bool want_write = false;
  };

  void accept_ready(EventLoop& loop);
  void conn_event(EventLoop& loop, Conn* conn, std::uint32_t events);
  /// Parses and answers every complete request in conn->rx; returns false
  /// when the connection must close.
  bool process_buffer(Conn* conn);
  void handle_request_line(Conn* conn, std::string_view request_line,
                           bool keep_alive);
  void respond(Conn* conn, int status, std::string_view reason,
               std::string_view body, bool keep_alive);
  void announce_body(std::string_view target);
  bool scrape_body(std::string_view target);
  /// Flushes staged bytes; returns false when the connection died.
  bool flush(Conn* conn);
  void update_interest(EventLoop& loop, Conn* conn);
  void close_conn(EventLoop& loop, Conn* conn);

  Tracker* tracker_;
  FdHandle listener_;
  std::function<SimTime()> now_fn_;
  std::unordered_map<Conn*, std::unique_ptr<Conn>> conns_;
  HttpStats stats_;
  // Reused across requests (zero-allocation steady state on the announce
  // path, mirroring handle_into).
  AnnounceReply reply_;
  Tracker::AnnounceScratch scratch_;
  std::string body_;
};

}  // namespace btpub::netio
