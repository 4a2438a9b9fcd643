#include "dht/node_id.hpp"

namespace btpub::dht {

NodeId NodeId::for_endpoint(std::uint64_t seed, const Endpoint& endpoint) {
  std::uint8_t material[14];
  for (int i = 0; i < 8; ++i) {
    material[i] = static_cast<std::uint8_t>(seed >> (8 * (7 - i)));
  }
  const std::uint32_t ip = endpoint.ip.value();
  material[8] = static_cast<std::uint8_t>(ip >> 24);
  material[9] = static_cast<std::uint8_t>(ip >> 16);
  material[10] = static_cast<std::uint8_t>(ip >> 8);
  material[11] = static_cast<std::uint8_t>(ip);
  material[12] = static_cast<std::uint8_t>(endpoint.port >> 8);
  material[13] = static_cast<std::uint8_t>(endpoint.port);
  return from_digest(Sha1::hash(std::span<const std::uint8_t>(material)));
}

}  // namespace btpub::dht
