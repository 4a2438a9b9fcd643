// magnet.hpp — magnet URIs (BEP 9 metadata links).
//
// By 2010 the portals had started offering magnet links next to .torrent
// downloads; a measurement apparatus has to parse both. A magnet link
// carries the infohash (xt=urn:btih:<40 hex>), a display name (dn=),
// tracker URLs (tr=) and direct peer hints (x.pe=<ip>:<port>, BEP 9) —
// the trackerless entry points a DHT client bootstraps from.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "crypto/sha1.hpp"
#include "net/ip.hpp"

namespace btpub {

struct MagnetLink {
  Sha1Digest infohash{};
  std::string display_name;           // optional
  std::vector<std::string> trackers;  // optional
  std::vector<Endpoint> peers;        // optional x.pe peer hints

  /// Parses a magnet URI; nullopt when the scheme or the infohash is
  /// missing/malformed, or an x.pe hint is not a valid <ip>:<port>.
  /// Unknown parameters are ignored.
  static std::optional<MagnetLink> parse(std::string_view uri);
};

}  // namespace btpub
