#include "tracker/announce.hpp"

#include <charconv>
#include <stdexcept>

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

std::string encode_announce_reply(const AnnounceReply& reply) {
  std::string out;
  encode_announce_reply_into(reply, out);
  return out;
}

AnnounceReply decode_announce_reply(std::string_view bytes) {
  // One Reader pass over the whole reply, keeping the fields as views;
  // they are interpreted after it, so any syntax error anywhere throws
  // bencode::Error first (Reader errors are sticky: the loop just ends).
  // A field of the wrong type, or a top-level value that is no dict, is
  // ignored, as a lookup in the decoded tree would.
  bencode::Reader r(bytes);
  std::optional<std::string_view> failure;
  std::optional<std::string_view> peers;
  std::int64_t interval = 0;
  std::int64_t complete = 0;
  std::int64_t incomplete = 0;
  const auto read_integer = [&](std::int64_t& out) {
    if (r.peek() == bencode::Reader::Type::Integer) {
      r.integer(out);
    } else {
      r.skip();
    }
  };
  const auto read_string = [&](std::optional<std::string_view>& out) {
    std::string_view view;
    if (r.peek() != bencode::Reader::Type::String) {
      r.skip();
    } else if (r.string(view)) {
      out = view;
    }
  };
  if (r.peek() == bencode::Reader::Type::Dict && r.enter_dict()) {
    std::string_view key;
    while (r.next_key(key)) {
      if (key == "complete") {
        read_integer(complete);
      } else if (key == "failure reason") {
        read_string(failure);
      } else if (key == "incomplete") {
        read_integer(incomplete);
      } else if (key == "interval") {
        read_integer(interval);
      } else if (key == "peers") {
        read_string(peers);
      } else {
        r.skip();
      }
    }
  } else {
    r.skip();
  }
  if (!r.finish()) throw bencode::Error(r.error());

  AnnounceReply reply;
  if (failure) {
    reply.ok = false;
    reply.failure_reason = *failure;
    return reply;
  }
  reply.ok = true;
  reply.interval = interval;
  reply.complete = static_cast<std::uint32_t>(complete);
  reply.incomplete = static_cast<std::uint32_t>(incomplete);
  if (peers) reply.peers = decode_compact_peers(*peers);
  return reply;
}

}  // namespace btpub
