// wire_support.hpp — fresh-buffer forms of the product's wire paths, which
// all write into a caller-owned string: a message's encode_into (BEP 15
// UDP tracker and KRPC messages) and a server's handle_into (the UDP
// tracker endpoint, a DHT node). Tests use them to hold a whole datagram.
#pragma once

#include <string>
#include <string_view>

#include "net/ip.hpp"
#include "util/time.hpp"

namespace btpub {

/// The datagram `message.encode_into` writes.
template <typename Message>
std::string encode(const Message& message) {
  std::string out;
  message.encode_into(out);
  return out;
}

/// The reply `server.handle_into` writes for `datagram`.
template <typename Server>
std::string handle(Server& server, std::string_view datagram,
                   const Endpoint& from, SimTime now) {
  std::string out;
  server.handle_into(datagram, from, now, out);
  return out;
}

}  // namespace btpub
