#include "netio/http.hpp"

#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>

#include "tracker/announce.hpp"
#include "util/strings.hpp"

namespace btpub::netio {
namespace {

/// Case-insensitive "Connection: close" scan over the raw header block.
bool wants_close(std::string_view headers) {
  for (const std::string_view line : split_views(headers, '\n')) {
    const auto colon = line.find(':');
    if (colon == std::string_view::npos) continue;
    const std::string_view key = trim(line.substr(0, colon));
    if (key.size() != 10 || to_lower(key) != "connection") continue;
    if (to_lower(trim(line.substr(colon + 1))) == "close") return true;
  }
  return false;
}

}  // namespace

HttpAnnounceServer::HttpAnnounceServer(Tracker& tracker, FdHandle listener,
                                       std::function<SimTime()> now_fn)
    : tracker_(&tracker),
      listener_(std::move(listener)),
      now_fn_(std::move(now_fn)) {}

HttpAnnounceServer::~HttpAnnounceServer() = default;

void HttpAnnounceServer::register_with(EventLoop& loop) {
  loop.add(listener_.get(), EPOLLIN, kListenerTag);
}

bool HttpAnnounceServer::owns(std::uint64_t tag) const {
  if (tag == kListenerTag) return true;
  return conns_.contains(reinterpret_cast<Conn*>(tag));
}

void HttpAnnounceServer::on_event(EventLoop& loop, std::uint64_t tag,
                                  std::uint32_t events) {
  if (tag == kListenerTag) {
    accept_ready(loop);
    return;
  }
  conn_event(loop, reinterpret_cast<Conn*>(tag), events);
}

void HttpAnnounceServer::accept_ready(EventLoop& loop) {
  for (;;) {
    const int fd = accept4(listener_.get(), nullptr, nullptr, SOCK_NONBLOCK);
    if (fd < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      if (errno == EINTR) continue;
      return;  // transient accept failure (EMFILE etc.): keep serving
    }
    auto conn = std::make_unique<Conn>();
    conn->fd = FdHandle(fd);
    Conn* raw = conn.get();
    conns_.emplace(raw, std::move(conn));
    ++stats_.accepted;
    loop.add(fd, EPOLLIN, reinterpret_cast<std::uint64_t>(raw));
  }
}

void HttpAnnounceServer::conn_event(EventLoop& loop, Conn* conn,
                                    std::uint32_t events) {
  const auto it = conns_.find(conn);
  if (it == conns_.end()) return;  // already closed this round
  if (events & (EPOLLHUP | EPOLLERR)) {
    close_conn(loop, conn);
    return;
  }
  if (events & EPOLLIN) {
    char buf[4096];
    bool peer_closed = false;
    for (;;) {
      const ssize_t n = read(conn->fd.get(), buf, sizeof buf);
      if (n > 0) {
        conn->rx.append(buf, static_cast<std::size_t>(n));
        continue;
      }
      if (n == 0) {
        peer_closed = true;
        break;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      if (errno == EINTR) continue;
      close_conn(loop, conn);
      return;
    }
    const bool keep = process_buffer(conn);
    if (!flush(conn) || !keep || peer_closed) {
      close_conn(loop, conn);
      return;
    }
    if (conn->close_after && !conn->want_write) {
      close_conn(loop, conn);
      return;
    }
  }
  if (events & EPOLLOUT) {
    if (!flush(conn)) {
      close_conn(loop, conn);
      return;
    }
    if (!conn->want_write && conn->close_after) {
      close_conn(loop, conn);
      return;
    }
  }
  update_interest(loop, conn);
}

bool HttpAnnounceServer::process_buffer(Conn* conn) {
  for (;;) {
    const auto head_end = conn->rx.find("\r\n\r\n");
    if (head_end == std::string::npos) {
      if (conn->rx.size() > kMaxHeaderBytes) {
        ++stats_.oversized;
        respond(conn, 431, "Request Header Fields Too Large", "", false);
        return false;
      }
      return true;  // need more bytes
    }
    if (head_end > kMaxHeaderBytes) {
      ++stats_.oversized;
      respond(conn, 431, "Request Header Fields Too Large", "", false);
      return false;
    }
    const std::string_view head(conn->rx.data(), head_end);
    const auto line_end = head.find("\r\n");
    const std::string_view request_line =
        head.substr(0, line_end == std::string_view::npos ? head.size()
                                                          : line_end);
    const std::string_view headers =
        line_end == std::string_view::npos ? std::string_view{}
                                           : head.substr(line_end + 2);

    // METHOD SP TARGET SP VERSION — anything else is unframeable.
    const auto sp1 = request_line.find(' ');
    const auto sp2 = sp1 == std::string_view::npos
                         ? std::string_view::npos
                         : request_line.find(' ', sp1 + 1);
    if (sp2 == std::string_view::npos ||
        request_line.find(' ', sp2 + 1) != std::string_view::npos) {
      ++stats_.bad_requests;
      respond(conn, 400, "Bad Request", "", false);
      return false;
    }
    const std::string_view method = request_line.substr(0, sp1);
    const std::string_view target =
        request_line.substr(sp1 + 1, sp2 - sp1 - 1);
    const std::string_view version = request_line.substr(sp2 + 1);
    if (version != "HTTP/1.1" && version != "HTTP/1.0") {
      ++stats_.bad_requests;
      respond(conn, 505, "HTTP Version Not Supported", "", false);
      return false;
    }
    const bool keep_alive = version == "HTTP/1.1" && !wants_close(headers);

    if (method != "GET") {
      ++stats_.bad_requests;
      respond(conn, 405, "Method Not Allowed", "", keep_alive);
    } else if (starts_with(target, "/announce")) {
      ++stats_.requests;
      ++stats_.announces;
      announce_body(target);
      respond(conn, 200, "OK", body_, keep_alive);
    } else if (starts_with(target, "/scrape")) {
      ++stats_.requests;
      if (scrape_body(target)) {
        ++stats_.scrapes;
        respond(conn, 200, "OK", body_, keep_alive);
      } else {
        ++stats_.bad_requests;
        respond(conn, 400, "Bad Request", "", keep_alive);
      }
    } else {
      ++stats_.requests;
      respond(conn, 404, "Not Found", "", keep_alive);
    }

    conn->rx.erase(0, head_end + 4);
    if (!keep_alive) {
      conn->close_after = true;
      return true;  // flush staged responses, then close
    }
  }
}

void HttpAnnounceServer::announce_body(std::string_view target) {
  // The view parser, then announce_into — the body bytes are the protocol
  // contract (announce_fastpath_test pins them for one query).
  const auto request = parse_query_string(target);
  if (!request) {
    reply_.ok = false;
    reply_.failure_reason = "malformed request";
    encode_announce_reply_into(reply_, body_);
    return;
  }
  AnnounceRequest fixed = *request;
  // The `t` parameter carries simulated time in-band (the crawler's
  // convention); requests without it get the daemon's clock.
  if (fixed.now == 0) fixed.now = now_fn_();
  tracker_->announce_into(fixed, reply_, scratch_);
  encode_announce_reply_into(reply_, body_);
}

bool HttpAnnounceServer::scrape_body(std::string_view target) {
  const auto qmark = target.find('?');
  if (qmark == std::string_view::npos) return false;
  Sha1Digest infohash{};
  bool have_hash = false;
  for (const std::string_view pair :
       split_views(target.substr(qmark + 1), '&')) {
    const auto eq = pair.find('=');
    if (eq == std::string_view::npos) continue;
    if (pair.substr(0, eq) != "info_hash") continue;
    const auto n = url_unescape_into(
        pair.substr(eq + 1), reinterpret_cast<char*>(infohash.bytes.data()),
        infohash.bytes.size());
    if (!n || *n != infohash.bytes.size()) return false;
    have_hash = true;
  }
  if (!have_hash) return false;
  body_ = tracker_->scrape(infohash, now_fn_());
  return true;
}

void HttpAnnounceServer::respond(Conn* conn, int status,
                                 std::string_view reason,
                                 std::string_view body, bool keep_alive) {
  char head[160];
  const int n = std::snprintf(
      head, sizeof head,
      "HTTP/1.1 %d %.*s\r\n"
      "Content-Type: text/plain\r\n"
      "Content-Length: %zu\r\n"
      "Connection: %s\r\n"
      "\r\n",
      status, static_cast<int>(reason.size()), reason.data(), body.size(),
      keep_alive ? "keep-alive" : "close");
  conn->tx.append(head, static_cast<std::size_t>(n));
  conn->tx.append(body);
}

bool HttpAnnounceServer::flush(Conn* conn) {
  while (conn->tx_off < conn->tx.size()) {
    const ssize_t n =
        write(conn->fd.get(), conn->tx.data() + conn->tx_off,
              conn->tx.size() - conn->tx_off);
    if (n > 0) {
      conn->tx_off += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      conn->want_write = true;
      return true;
    }
    if (n < 0 && errno == EINTR) continue;
    return false;  // peer went away mid-response
  }
  conn->tx.clear();
  conn->tx_off = 0;
  conn->want_write = false;
  return true;
}

void HttpAnnounceServer::update_interest(EventLoop& loop, Conn* conn) {
  if (!conns_.contains(conn)) return;
  loop.modify(conn->fd.get(),
              EPOLLIN | (conn->want_write ? EPOLLOUT : 0u),
              reinterpret_cast<std::uint64_t>(conn));
}

void HttpAnnounceServer::close_conn(EventLoop& loop, Conn* conn) {
  const auto it = conns_.find(conn);
  if (it == conns_.end()) return;
  loop.remove(conn->fd.get());
  conns_.erase(it);
  ++stats_.closed;
}

void HttpAnnounceServer::close_all(EventLoop& loop) {
  for (auto& [raw, conn] : conns_) {
    flush(conn.get());  // best-effort drain of staged responses
    loop.remove(conn->fd.get());
    ++stats_.closed;
  }
  conns_.clear();
  if (listener_.valid()) {
    loop.remove(listener_.get());
    listener_.reset();
  }
}

}  // namespace btpub::netio
