// socket.hpp — thin RAII layer over BSD sockets for the wire-serving
// tracker daemon and load generator. Everything is IPv4 (the study's
// datasets are), nonblocking, and errors carry errno plus the address that
// failed, so a `btpub serve` bind failure reads like
//   [btpub] error: bind udp 127.0.0.1:8800: Address already in use (errno 98)
// matching the load_or_generate warning convention.
#pragma once

#include <netinet/in.h>

#include <cstdint>
#include <string>
#include <system_error>
#include <utility>

#include "net/ip.hpp"

namespace btpub::netio {

/// Owning file descriptor. Move-only; -1 means empty.
class FdHandle {
 public:
  FdHandle() = default;
  explicit FdHandle(int fd) noexcept : fd_(fd) {}
  ~FdHandle() { reset(); }

  FdHandle(const FdHandle&) = delete;
  FdHandle& operator=(const FdHandle&) = delete;
  FdHandle(FdHandle&& other) noexcept : fd_(std::exchange(other.fd_, -1)) {}
  FdHandle& operator=(FdHandle&& other) noexcept {
    if (this != &other) {
      reset();
      fd_ = std::exchange(other.fd_, -1);
    }
    return *this;
  }

  int get() const noexcept { return fd_; }
  bool valid() const noexcept { return fd_ >= 0; }
  void reset() noexcept;
  int release() noexcept { return std::exchange(fd_, -1); }

 private:
  int fd_ = -1;
};

/// Throws std::system_error carrying errno with "<what> <addr>" context;
/// every socket helper funnels failures through this so the CLI can print
/// one uniform errno+address diagnostic.
[[noreturn]] void throw_errno(const std::string& what, const std::string& addr);

/// sockaddr_in -> Endpoint conversion (network-order sockaddr, host-order
/// Endpoint).
Endpoint from_sockaddr(const sockaddr_in& addr) noexcept;

/// Renders "a.b.c.d:port" for diagnostics.
std::string format_addr(const std::string& ip, std::uint16_t port);

/// Nonblocking UDP socket bound to ip:port with SO_REUSEPORT, so N shard
/// sockets can share one port and the kernel hashes each client's 4-tuple
/// onto a consistent shard (a client's connect handshake and its announces
/// land on the same shard's connection table). `rcvbuf_bytes`/
/// `sndbuf_bytes` request larger kernel queues (0 keeps the default);
/// failure to enlarge them is not an error, failure to bind is.
/// `port` 0 binds an ephemeral port; read it back with local_port().
FdHandle make_udp_shard_socket(const std::string& ip, std::uint16_t port,
                               int rcvbuf_bytes, int sndbuf_bytes);

/// Nonblocking UDP client socket connect()ed to ip:port: the kernel pins
/// the 4-tuple (stable SO_REUSEPORT shard on the server side) and delivers
/// async errors like ECONNREFUSED to the caller.
FdHandle make_udp_client_socket(const std::string& ip, std::uint16_t port);

/// Nonblocking TCP listener on ip:port (SO_REUSEADDR, given backlog).
FdHandle make_tcp_listener(const std::string& ip, std::uint16_t port,
                           int backlog);

/// Blocking TCP client socket connected to ip:port.
FdHandle make_tcp_client_socket(const std::string& ip, std::uint16_t port);

/// The port a socket is actually bound to (resolves ephemeral binds).
std::uint16_t local_port(int fd);

}  // namespace btpub::netio
