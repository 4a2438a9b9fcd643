// announce.hpp — the tracker HTTP announce protocol surface: request
// query-string encoding (BEP 3 over HTTP GET) and the bencoded response.
// Kept wire-real so the crawler parses exactly what a deployed tracker
// would emit.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "crypto/sha1.hpp"
#include "net/ip.hpp"
#include "util/strings.hpp"
#include "util/time.hpp"

namespace btpub {

/// An announce request as issued by a client (or by the crawler, which
/// always asks for the maximum number of peers, §2 of the paper).
struct AnnounceRequest {
  Sha1Digest infohash{};
  Endpoint client{};
  std::size_t numwant = 200;
  SimTime now = 0;  // simulated clock carried in-band instead of wall time
};

/// An announce response.
struct AnnounceReply {
  bool ok = false;
  std::string failure_reason;     // set when !ok
  SimDuration interval = 0;       // tracker-mandated min re-announce gap
  std::uint32_t complete = 0;     // seeders
  std::uint32_t incomplete = 0;   // leechers
  std::vector<Endpoint> peers;    // compact-encoded on the wire
};

/// Renders "/announce?info_hash=...&ip=...&port=...&numwant=...".
std::string to_query_string(const AnnounceRequest& request);
/// Parses a query string produced by to_query_string. nullopt when any
/// required field is missing or malformed. Duplicate keys follow
/// last-one-wins semantics (matching common tracker behaviour).
std::optional<AnnounceRequest> parse_query_string(std::string_view query);

/// Bencodes a reply (success or failure form), clearing `out` and writing
/// into it so the caller can reuse one buffer across queries.
/// Byte-identity of announce responses is part of the protocol contract
/// (see DESIGN.md, "Announce fast path").
void encode_announce_reply_into(const AnnounceReply& reply, std::string& out);

}  // namespace btpub
