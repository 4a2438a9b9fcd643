#include "netio/socket.hpp"

#include <arpa/inet.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace btpub::netio {

void FdHandle::reset() noexcept {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
}

void throw_errno(const std::string& what, const std::string& addr) {
  throw std::system_error(errno, std::generic_category(), what + " " + addr);
}

Endpoint from_sockaddr(const sockaddr_in& addr) noexcept {
  return Endpoint{IpAddress(ntohl(addr.sin_addr.s_addr)),
                  ntohs(addr.sin_port)};
}

std::string format_addr(const std::string& ip, std::uint16_t port) {
  return ip + ":" + std::to_string(port);
}

namespace {

sockaddr_in parse_addr(const std::string& ip, std::uint16_t port,
                       const std::string& what) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (inet_pton(AF_INET, ip.c_str(), &addr.sin_addr) != 1) {
    errno = EINVAL;
    throw_errno(what, format_addr(ip, port));
  }
  return addr;
}

}  // namespace

std::uint16_t local_port(int fd) {
  sockaddr_in addr{};
  socklen_t len = sizeof addr;
  if (getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    throw_errno("getsockname on fd", std::to_string(fd));
  }
  return ntohs(addr.sin_port);
}

FdHandle make_udp_shard_socket(const std::string& ip, std::uint16_t port,
                               int rcvbuf_bytes, int sndbuf_bytes) {
  const std::string where = format_addr(ip, port);
  const sockaddr_in addr = parse_addr(ip, port, "parse udp address");
  FdHandle fd(socket(AF_INET, SOCK_DGRAM | SOCK_NONBLOCK, 0));
  if (!fd.valid()) throw_errno("socket udp", where);
  const int one = 1;
  if (setsockopt(fd.get(), SOL_SOCKET, SO_REUSEPORT, &one, sizeof one) != 0) {
    throw_errno("setsockopt SO_REUSEPORT udp", where);
  }
  // Larger kernel queues absorb recvmmsg batch jitter; best effort because
  // the defaults still work, just with more drops under burst.
  if (rcvbuf_bytes > 0) {
    setsockopt(fd.get(), SOL_SOCKET, SO_RCVBUF, &rcvbuf_bytes,
               sizeof rcvbuf_bytes);
  }
  if (sndbuf_bytes > 0) {
    setsockopt(fd.get(), SOL_SOCKET, SO_SNDBUF, &sndbuf_bytes,
               sizeof sndbuf_bytes);
  }
  if (bind(fd.get(), reinterpret_cast<const sockaddr*>(&addr), sizeof addr) !=
      0) {
    throw_errno("bind udp", where);
  }
  return fd;
}

FdHandle make_udp_client_socket(const std::string& ip, std::uint16_t port) {
  const std::string where = format_addr(ip, port);
  const sockaddr_in addr = parse_addr(ip, port, "parse udp address");
  FdHandle fd(socket(AF_INET, SOCK_DGRAM | SOCK_NONBLOCK, 0));
  if (!fd.valid()) throw_errno("socket udp", where);
  if (connect(fd.get(), reinterpret_cast<const sockaddr*>(&addr),
              sizeof addr) != 0) {
    throw_errno("connect udp", where);
  }
  return fd;
}

FdHandle make_tcp_listener(const std::string& ip, std::uint16_t port,
                           int backlog) {
  const std::string where = format_addr(ip, port);
  const sockaddr_in addr = parse_addr(ip, port, "parse tcp address");
  FdHandle fd(socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0));
  if (!fd.valid()) throw_errno("socket tcp", where);
  const int one = 1;
  if (setsockopt(fd.get(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof one) != 0) {
    throw_errno("setsockopt SO_REUSEADDR tcp", where);
  }
  if (bind(fd.get(), reinterpret_cast<const sockaddr*>(&addr), sizeof addr) !=
      0) {
    throw_errno("bind tcp", where);
  }
  if (listen(fd.get(), backlog) != 0) throw_errno("listen tcp", where);
  return fd;
}

FdHandle make_tcp_client_socket(const std::string& ip, std::uint16_t port) {
  const std::string where = format_addr(ip, port);
  const sockaddr_in addr = parse_addr(ip, port, "parse tcp address");
  FdHandle fd(socket(AF_INET, SOCK_STREAM, 0));
  if (!fd.valid()) throw_errno("socket tcp", where);
  const int one = 1;
  // The loadgen pipelines small GETs; Nagle would serialize them on RTT.
  setsockopt(fd.get(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  if (connect(fd.get(), reinterpret_cast<const sockaddr*>(&addr),
              sizeof addr) != 0) {
    throw_errno("connect tcp", where);
  }
  return fd;
}

}  // namespace btpub::netio
