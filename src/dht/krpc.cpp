#include "dht/krpc.hpp"

#include <cstring>

#include "bencode/bencode.hpp"

namespace btpub::dht {
namespace {

/// Writes the 6-byte compact form of `peer` (big-endian ip, then port).
void put_compact_peer(char* out, const Endpoint& peer) {
  const std::uint32_t ip = peer.ip.value();
  out[0] = static_cast<char>(ip >> 24);
  out[1] = static_cast<char>(ip >> 16);
  out[2] = static_cast<char>(ip >> 8);
  out[3] = static_cast<char>(ip);
  out[4] = static_cast<char>(peer.port >> 8);
  out[5] = static_cast<char>(peer.port);
}

std::string_view bytes_view(const std::array<std::uint8_t, 20>& bytes) {
  return {reinterpret_cast<const char*>(bytes.data()), bytes.size()};
}

void append_compact_nodes(std::string_view blob, std::vector<NodeInfo>& out) {
  for (std::size_t at = 0; at + 26 <= blob.size(); at += 26) {
    NodeInfo& node = out.emplace_back();
    std::memcpy(node.id.bytes.data(), blob.data() + at, 20);
    node.endpoint = *parse_compact_peer(blob.substr(at + 20, 6));  // 6 bytes
  }
}

std::optional<Method> parse_method(std::string_view name) {
  if (name == "ping") return Method::Ping;
  if (name == "find_node") return Method::FindNode;
  if (name == "get_peers") return Method::GetPeers;
  if (name == "announce_peer") return Method::AnnouncePeer;
  return std::nullopt;
}

/// One dict value as the decoders see it: an integer, a string span into
/// the datagram, or Other — absent, or a container (skipped, though the
/// Reader validates it).
struct Field {
  enum class Kind : std::uint8_t { Other, Integer, String };
  Kind kind = Kind::Other;
  std::int64_t integer = 0;
  std::string_view bytes;

  bool is_integer() const { return kind == Kind::Integer; }
  bool is_string() const { return kind == Kind::String; }
  bool is_string(std::string_view want) const {
    return is_string() && bytes == want;
  }

  /// Copies a 20-byte string into an id/digest; false on any type or
  /// length mismatch.
  bool read_id(std::array<std::uint8_t, 20>& out) const {
    if (!is_string() || bytes.size() != out.size()) return false;
    std::memcpy(out.data(), bytes.data(), out.size());
    return true;
  }
};

Field read_field(bencode::Reader& r) {
  Field f;
  switch (r.peek()) {
    case bencode::Reader::Type::Integer:
      f.kind = Field::Kind::Integer;
      r.integer(f.integer);
      break;
    case bencode::Reader::Type::String:
      f.kind = Field::Kind::String;
      r.string(f.bytes);
      break;
    default:
      r.skip();
      break;
  }
  return f;
}

/// The top-level "q", "t" and "y" of a well-formed bencoded dict; nullopt
/// for anything else.
struct Envelope {
  Field q, t, y;
};

std::optional<Envelope> read_envelope(std::string_view datagram) {
  bencode::Reader r(datagram);
  if (!r.enter_dict()) return std::nullopt;
  Envelope env;
  std::string_view key;
  while (r.next_key(key)) {
    if (key == "q") {
      env.q = read_field(r);
    } else if (key == "t") {
      env.t = read_field(r);
    } else if (key == "y") {
      env.y = read_field(r);
    } else {
      r.skip();
    }
  }
  if (!r.finish()) return std::nullopt;
  return env;
}

}  // namespace

std::string_view to_string(Method method) {
  switch (method) {
    case Method::Ping: return "ping";
    case Method::FindNode: return "find_node";
    case Method::GetPeers: return "get_peers";
    case Method::AnnouncePeer: return "announce_peer";
  }
  return "ping";
}

// ---- compact encodings ----------------------------------------------------

void append_compact_node(std::string& out, const NodeInfo& node) {
  char bytes[26];
  std::memcpy(bytes, node.id.bytes.data(), 20);
  put_compact_peer(bytes + 20, node.endpoint);
  out.append(bytes, sizeof bytes);
}

void append_compact_peer(std::string& out, const Endpoint& peer) {
  char bytes[6];
  put_compact_peer(bytes, peer);
  out.append(bytes, sizeof bytes);
}

std::optional<Endpoint> parse_compact_peer(std::string_view blob) {
  if (blob.size() != 6) return std::nullopt;
  const auto u8 = [&](std::size_t i) {
    return static_cast<std::uint32_t>(static_cast<unsigned char>(blob[i]));
  };
  Endpoint peer;
  peer.ip = IpAddress((u8(0) << 24) | (u8(1) << 16) | (u8(2) << 8) | u8(3));
  peer.port = static_cast<std::uint16_t>((u8(4) << 8) | u8(5));
  return peer;
}

// ---- query ----------------------------------------------------------------

void Query::encode_into(std::string& out) const {
  out.clear();
  bencode::Writer w(out);
  w.begin_dict();
  w.key("a");
  {
    w.begin_dict();
    w.key("id");
    w.string(bytes_view(sender_id.bytes));
    if (method == Method::GetPeers || method == Method::AnnouncePeer) {
      w.key("info_hash");
      w.string(bytes_view(info_hash.bytes));
    }
    if (method == Method::AnnouncePeer) {
      w.key("port");
      w.integer(port);
    }
    if (method == Method::FindNode) {
      w.key("target");
      w.string(bytes_view(target.bytes));
    }
    if (method == Method::AnnouncePeer) {
      w.key("token");
      w.string(token);
    }
    w.end();
  }
  w.key("q");
  w.string(to_string(method));
  if (read_only) {
    w.key("ro");
    w.integer(1);
  }
  w.key("t");
  w.string(transaction_id);
  w.key("y");
  w.string("q");
  w.end();
}

bool Query::decode_into(std::string_view datagram, Query& out) {
  bencode::Reader r(datagram);
  if (!r.enter_dict()) return false;
  // "a" sorts before "q": the arguments are kept as spans and checked once
  // the method is known.
  bool have_args = false;
  Field id, info_hash, port, target, token, q, ro, t, y;
  std::string_view key;
  while (r.next_key(key)) {
    if (key == "a") {
      if (r.peek() != bencode::Reader::Type::Dict) return false;
      have_args = r.enter_dict();
      while (r.next_key(key)) {
        if (key == "id") {
          id = read_field(r);
        } else if (key == "info_hash") {
          info_hash = read_field(r);
        } else if (key == "port") {
          port = read_field(r);
        } else if (key == "target") {
          target = read_field(r);
        } else if (key == "token") {
          token = read_field(r);
        } else {
          r.skip();
        }
      }
    } else if (key == "q") {
      q = read_field(r);
    } else if (key == "ro") {
      ro = read_field(r);
    } else if (key == "t") {
      t = read_field(r);
    } else if (key == "y") {
      y = read_field(r);
    } else {
      r.skip();
    }
  }
  if (!r.finish() || !have_args || !y.is_string("q") || !t.is_string() ||
      !q.is_string()) {
    return false;
  }
  const auto method = parse_method(q.bytes);
  if (!method || !id.read_id(out.sender_id.bytes)) return false;
  out.method = *method;
  out.target = {};
  out.info_hash = {};
  out.port = 0;
  out.token.clear();
  switch (out.method) {
    case Method::Ping:
      break;
    case Method::FindNode:
      if (!target.read_id(out.target.bytes)) return false;
      break;
    case Method::GetPeers:
      if (!info_hash.read_id(out.info_hash.bytes)) return false;
      break;
    case Method::AnnouncePeer:
      if (!info_hash.read_id(out.info_hash.bytes) || !port.is_integer() ||
          port.integer < 0 || port.integer > 0xffff || !token.is_string()) {
        return false;
      }
      out.port = static_cast<std::uint16_t>(port.integer);
      out.token.assign(token.bytes);
      break;
  }
  out.transaction_id.assign(t.bytes);
  out.read_only = ro.is_integer() && ro.integer != 0;
  return true;
}

// ---- response -------------------------------------------------------------

void Response::encode_into(std::string& out) const {
  out.clear();
  bencode::Writer w(out);
  w.begin_dict();
  w.key("r");
  {
    w.begin_dict();
    w.key("id");
    w.string(bytes_view(sender_id.bytes));
    if (!nodes.empty()) {
      w.key("nodes");
      w.string_header(nodes.size() * 26);
      for (const NodeInfo& node : nodes) append_compact_node(out, node);
    }
    if (!token.empty()) {
      w.key("token");
      w.string(token);
    }
    if (!peers.empty()) {
      w.key("values");
      w.begin_list();
      for (const Endpoint& peer : peers) {
        w.string_header(6);
        append_compact_peer(out, peer);
      }
      w.end();
    }
    w.end();
  }
  w.key("t");
  w.string(transaction_id);
  w.key("y");
  w.string("r");
  w.end();
}

bool Response::decode_into(std::string_view datagram, Response& out) {
  out.nodes.clear();
  out.peers.clear();
  out.token.clear();
  bencode::Reader r(datagram);
  if (!r.enter_dict()) return false;
  bool have_body = false;
  Field t, y;
  std::string_view key;
  while (r.next_key(key)) {
    if (key == "r") {
      if (r.peek() != bencode::Reader::Type::Dict) return false;
      have_body = r.enter_dict();
      bool have_id = false;
      while (r.next_key(key)) {
        if (key == "id") {
          if (!read_field(r).read_id(out.sender_id.bytes)) return false;
          have_id = true;
        } else if (key == "nodes") {
          const Field nodes = read_field(r);
          if (nodes.is_string()) {
            if (nodes.bytes.size() % 26 != 0) return false;
            append_compact_nodes(nodes.bytes, out.nodes);
          }
        } else if (key == "token") {
          const Field token = read_field(r);
          if (token.is_string()) out.token.assign(token.bytes);
        } else if (key == "values") {
          if (r.peek() != bencode::Reader::Type::List) return false;
          r.enter_list();
          while (r.next_item()) {
            if (r.peek() != bencode::Reader::Type::String) return false;
            std::string_view peer;
            if (!r.string(peer) || peer.size() != 6) return false;
            out.peers.push_back(*parse_compact_peer(peer));
          }
        } else {
          r.skip();
        }
      }
      if (!have_id) return false;
    } else if (key == "t") {
      t = read_field(r);
    } else if (key == "y") {
      y = read_field(r);
    } else {
      r.skip();
    }
  }
  if (!r.finish() || !have_body || !y.is_string("r") || !t.is_string()) {
    return false;
  }
  out.transaction_id.assign(t.bytes);
  return true;
}

// ---- error ----------------------------------------------------------------

void ErrorMessage::encode_into(std::string& out) const {
  out.clear();
  bencode::Writer w(out);
  w.begin_dict();
  w.key("e");
  w.begin_list();
  w.integer(code);
  w.string(message);
  w.end();
  w.key("t");
  w.string(transaction_id);
  w.key("y");
  w.string("e");
  w.end();
}

ErrorMessage malformed_query_error(std::string_view datagram) {
  ErrorMessage error;
  error.code = kErrorProtocol;
  error.message = "malformed query";
  if (const auto env = read_envelope(datagram)) {
    if (env->t.is_string()) error.transaction_id.assign(env->t.bytes);
    if (env->y.is_string("q") && env->q.is_string() &&
        !parse_method(env->q.bytes)) {
      error.code = kErrorUnknownMethod;
      error.message = "unknown method";
    }
  }
  return error;
}

}  // namespace btpub::dht
