#include "torrent/magnet.hpp"

#include <stdexcept>

#include "util/strings.hpp"

namespace btpub {

namespace {

std::optional<Endpoint> parse_peer_hint(std::string_view text) {
  const std::size_t colon = text.rfind(':');
  if (colon == std::string_view::npos || colon == 0 ||
      colon + 1 >= text.size()) {
    return std::nullopt;
  }
  const auto ip = IpAddress::parse(text.substr(0, colon));
  if (!ip) return std::nullopt;
  std::uint32_t port = 0;
  for (const char c : text.substr(colon + 1)) {
    if (c < '0' || c > '9') return std::nullopt;
    port = port * 10 + static_cast<std::uint32_t>(c - '0');
    if (port > 0xffff) return std::nullopt;
  }
  if (port == 0) return std::nullopt;
  return Endpoint{*ip, static_cast<std::uint16_t>(port)};
}

}  // namespace

std::optional<MagnetLink> MagnetLink::parse(std::string_view uri) {
  static constexpr std::string_view kScheme = "magnet:?";
  if (!starts_with(uri, kScheme)) return std::nullopt;
  MagnetLink link;
  bool have_hash = false;
  for (const std::string_view pair : split_views(uri.substr(kScheme.size()), '&')) {
    const std::size_t eq = pair.find('=');
    if (eq == std::string_view::npos) return std::nullopt;
    const std::string_view key = pair.substr(0, eq);
    const std::string_view raw = pair.substr(eq + 1);
    try {
      if (key == "xt") {
        static constexpr std::string_view kUrn = "urn:btih:";
        if (!starts_with(raw, kUrn)) return std::nullopt;
        const std::string_view hex = raw.substr(kUrn.size());
        if (hex.size() != 40) return std::nullopt;
        link.infohash = Sha1Digest::from_hex(hex);
        // from_hex yields the zero digest on bad input; reject unless the
        // text really was forty zeros.
        if (link.infohash == Sha1Digest{} && hex != std::string(40, '0')) {
          return std::nullopt;
        }
        have_hash = true;
      } else if (key == "dn") {
        link.display_name = url_unescape(raw);
      } else if (key == "tr") {
        link.trackers.push_back(url_unescape(raw));
      } else if (key == "x.pe") {
        const auto peer = parse_peer_hint(url_unescape(raw));
        if (!peer) return std::nullopt;
        link.peers.push_back(*peer);
      }
      // Other parameters (ws=, xl=, ...) are ignored.
    } catch (const std::invalid_argument&) {
      return std::nullopt;
    }
  }
  if (!have_hash) return std::nullopt;
  return link;
}

}  // namespace btpub
