// compact.hpp — BEP 23 compact peer-list encoding: each peer is 6 bytes
// (4-byte big-endian IPv4 + 2-byte big-endian port). Trackers answer
// announces with this format.
#pragma once

#include <string>

#include "net/ip.hpp"

namespace btpub {

/// Appends one peer's 6-byte compact form to `out` in place (the
/// announce fast path writes the peers blob directly into the reply
/// buffer instead of building an intermediate string).
void append_compact_peer(std::string& out, const Endpoint& peer);

}  // namespace btpub
