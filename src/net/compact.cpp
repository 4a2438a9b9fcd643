#include "net/compact.hpp"

namespace btpub {

void append_compact_peer(std::string& out, const Endpoint& peer) {
  const std::uint32_t ip = peer.ip.value();
  const char bytes[6] = {static_cast<char>((ip >> 24) & 0xff),
                         static_cast<char>((ip >> 16) & 0xff),
                         static_cast<char>((ip >> 8) & 0xff),
                         static_cast<char>(ip & 0xff),
                         static_cast<char>((peer.port >> 8) & 0xff),
                         static_cast<char>(peer.port & 0xff)};
  out.append(bytes, sizeof bytes);
}

}  // namespace btpub
