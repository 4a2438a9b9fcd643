#include "tracker/announce.hpp"

#include <charconv>

#include "bencode/bencode.hpp"
#include "net/compact.hpp"
#include "util/strings.hpp"

namespace btpub {

std::string to_query_string(const AnnounceRequest& request) {
  std::string hash_bytes(reinterpret_cast<const char*>(request.infohash.bytes.data()),
                         request.infohash.bytes.size());
  std::string out = "/announce?info_hash=" + url_escape(hash_bytes);
  out += "&ip=" + request.client.ip.to_string();
  out += "&port=" + std::to_string(request.client.port);
  out += "&numwant=" + std::to_string(request.numwant);
  out += "&t=" + std::to_string(request.now);
  return out;
}

std::optional<AnnounceRequest> parse_query_string(std::string_view query) {
  const auto qmark = query.find('?');
  if (qmark == std::string_view::npos) return std::nullopt;
  AnnounceRequest req;
  bool have_hash = false, have_ip = false, have_port = false;
  for (const std::string_view pair : split_views(query.substr(qmark + 1), '&')) {
    const auto eq = pair.find('=');
    if (eq == std::string_view::npos) return std::nullopt;
    const std::string_view key = pair.substr(0, eq);
    const std::string_view raw = pair.substr(eq + 1);
    if (key == "info_hash") {
      // In-place unescape into the fixed 20-byte digest — no temporary
      // string and no exceptions on the hot parse path.
      const auto n = url_unescape_into(
          raw, reinterpret_cast<char*>(req.infohash.bytes.data()),
          req.infohash.bytes.size());
      if (!n || *n != req.infohash.bytes.size()) return std::nullopt;
      have_hash = true;
    } else if (key == "ip") {
      const auto ip = IpAddress::parse(raw);
      if (!ip) return std::nullopt;
      req.client.ip = *ip;
      have_ip = true;
    } else if (key == "port") {
      unsigned port = 0;
      const auto res = std::from_chars(raw.data(), raw.data() + raw.size(), port);
      if (res.ec != std::errc{} || port > 65535) return std::nullopt;
      req.client.port = static_cast<std::uint16_t>(port);
      have_port = true;
    } else if (key == "numwant") {
      std::size_t numwant = 0;
      const auto res =
          std::from_chars(raw.data(), raw.data() + raw.size(), numwant);
      if (res.ec != std::errc{}) return std::nullopt;
      req.numwant = numwant;
    } else if (key == "t") {
      SimTime t = 0;
      const auto res = std::from_chars(raw.data(), raw.data() + raw.size(), t);
      if (res.ec != std::errc{}) return std::nullopt;
      req.now = t;
    }
  }
  if (!have_hash || !have_ip || !have_port) return std::nullopt;
  return req;
}

void encode_announce_reply_into(const AnnounceReply& reply, std::string& out) {
  out.clear();
  bencode::Writer writer(out);
  writer.begin_dict();
  if (!reply.ok) {
    writer.key("failure reason");
    writer.string(reply.failure_reason);
    writer.end();
    return;
  }
  // Keys in ascending byte order — the canonical-dict encoding the
  // tree-based encoder produced via std::map.
  writer.key("complete");
  writer.integer(static_cast<std::int64_t>(reply.complete));
  writer.key("incomplete");
  writer.integer(static_cast<std::int64_t>(reply.incomplete));
  writer.key("interval");
  writer.integer(static_cast<std::int64_t>(reply.interval));
  writer.key("peers");
  writer.string_header(reply.peers.size() * 6);
  for (const Endpoint& peer : reply.peers) append_compact_peer(out, peer);
  writer.end();
}

}  // namespace btpub
