// dht_support.hpp — test-side helpers for the DHT: a fresh-message form of
// decode_into (encode/handle come from wire_support.hpp), a routing
// table's full contact list, and the reference KRPC decoders built on the
// value-tree decoder (tests/bencode_tree.hpp). The product decodes only
// queries and responses (decode_into); error replies are read back here
// through ref_error, and the message kind through ref_kind.
#pragma once

#include <algorithm>
#include <array>
#include <cstring>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "bencode/bencode.hpp"
#include "bencode_tree.hpp"
#include "dht/krpc.hpp"
#include "dht/routing_table.hpp"
#include "wire_support.hpp"

namespace btpub::dht {

/// `Message::decode_into` a fresh message; nullopt when it rejects.
template <typename Message>
std::optional<Message> decode(std::string_view datagram) {
  Message message;
  if (!Message::decode_into(datagram, message)) return std::nullopt;
  return message;
}

/// Every contact of `table`, closest to its own id first.
inline std::vector<NodeInfo> contacts(const RoutingTable& table) {
  std::vector<NodeInfo> out;
  table.closest(table.self(), 160 * RoutingTable::kBucketSize, out);
  return out;
}

inline bool has_contact(const RoutingTable& table, const NodeId& id) {
  const std::vector<NodeInfo> all = contacts(table);
  return std::any_of(all.begin(), all.end(),
                     [&](const NodeInfo& c) { return c.id == id; });
}

// ---- the reference: the tree-decoding KRPC logic ---------------------------

inline std::optional<bencode::Value> ref_root(std::string_view datagram) {
  try {
    bencode::Value root = bencode::decode(datagram);
    if (!root.is_dict()) return std::nullopt;
    return root;
  } catch (const bencode::Error&) {
    return std::nullopt;
  }
}

inline bool ref_read_id(const bencode::Value* value,
                        std::array<std::uint8_t, 20>& out) {
  if (value == nullptr || !value->is_string()) return false;
  const std::string& s = value->as_string();
  if (s.size() != out.size()) return false;
  std::memcpy(out.data(), s.data(), out.size());
  return true;
}

inline std::optional<Query> ref_query(std::string_view datagram) {
  const auto root = ref_root(datagram);
  if (!root) return std::nullopt;
  const auto y = root->find_string("y");
  if (!y || *y != "q") return std::nullopt;
  const auto t = root->find_string("t");
  const auto q = root->find_string("q");
  if (!t || !q) return std::nullopt;
  Query query;
  query.transaction_id = *t;
  if (*q == "ping") {
    query.method = Method::Ping;
  } else if (*q == "find_node") {
    query.method = Method::FindNode;
  } else if (*q == "get_peers") {
    query.method = Method::GetPeers;
  } else if (*q == "announce_peer") {
    query.method = Method::AnnouncePeer;
  } else {
    return std::nullopt;
  }
  if (const auto ro = root->find_integer("ro")) query.read_only = *ro != 0;
  const bencode::Value* args = root->find("a");
  if (args == nullptr || !args->is_dict()) return std::nullopt;
  if (!ref_read_id(args->find("id"), query.sender_id.bytes)) return std::nullopt;
  switch (query.method) {
    case Method::Ping:
      break;
    case Method::FindNode:
      if (!ref_read_id(args->find("target"), query.target.bytes)) return std::nullopt;
      break;
    case Method::GetPeers:
      if (!ref_read_id(args->find("info_hash"), query.info_hash.bytes)) {
        return std::nullopt;
      }
      break;
    case Method::AnnouncePeer: {
      if (!ref_read_id(args->find("info_hash"), query.info_hash.bytes)) {
        return std::nullopt;
      }
      const auto port = args->find_integer("port");
      if (!port || *port < 0 || *port > 0xffff) return std::nullopt;
      query.port = static_cast<std::uint16_t>(*port);
      const auto token = args->find_string("token");
      if (!token) return std::nullopt;
      query.token = *token;
      break;
    }
  }
  return query;
}

inline std::optional<Response> ref_response(std::string_view datagram) {
  const auto root = ref_root(datagram);
  if (!root) return std::nullopt;
  const auto y = root->find_string("y");
  if (!y || *y != "r") return std::nullopt;
  const auto t = root->find_string("t");
  if (!t) return std::nullopt;
  const bencode::Value* body = root->find("r");
  if (body == nullptr || !body->is_dict()) return std::nullopt;
  Response response;
  response.transaction_id = *t;
  if (!ref_read_id(body->find("id"), response.sender_id.bytes)) return std::nullopt;
  if (const auto nodes = body->find_string("nodes")) {
    if (nodes->size() % 26 != 0) return std::nullopt;
    for (std::size_t at = 0; at < nodes->size(); at += 26) {
      NodeInfo& node = response.nodes.emplace_back();
      std::memcpy(node.id.bytes.data(), nodes->data() + at, 20);
      node.endpoint = *parse_compact_peer(nodes->substr(at + 20, 6));
    }
  }
  if (const auto token = body->find_string("token")) response.token = *token;
  if (const bencode::Value* values = body->find("values")) {
    if (!values->is_list()) return std::nullopt;
    for (const bencode::Value& entry : values->as_list()) {
      if (!entry.is_string()) return std::nullopt;
      const auto peer = parse_compact_peer(entry.as_string());
      if (!peer) return std::nullopt;
      response.peers.push_back(*peer);
    }
  }
  return response;
}

inline std::optional<ErrorMessage> ref_error(std::string_view datagram) {
  const auto root = ref_root(datagram);
  if (!root) return std::nullopt;
  const auto y = root->find_string("y");
  if (!y || *y != "e") return std::nullopt;
  const auto t = root->find_string("t");
  if (!t) return std::nullopt;
  const bencode::Value* e = root->find("e");
  if (e == nullptr || !e->is_list()) return std::nullopt;
  const bencode::List& list = e->as_list();
  if (list.size() != 2 || !list[0].is_integer() || !list[1].is_string()) {
    return std::nullopt;
  }
  ErrorMessage error;
  error.transaction_id = *t;
  error.code = list[0].as_integer();
  error.message = list[1].as_string();
  return error;
}

/// The message kind ('q', 'r' or 'e'); nullopt for malformed bencode or a
/// missing/invalid "y" key.
inline std::optional<char> ref_kind(std::string_view datagram) {
  const auto root = ref_root(datagram);
  if (!root) return std::nullopt;
  const auto y = root->find_string("y");
  if (!y || y->size() != 1) return std::nullopt;
  const char kind = (*y)[0];
  if (kind != 'q' && kind != 'r' && kind != 'e') return std::nullopt;
  return kind;
}

}  // namespace btpub::dht
