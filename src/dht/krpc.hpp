// krpc.hpp — the KRPC message layer of Mainline DHT (BEP 5).
//
// Every DHT datagram is a single bencoded dictionary: a query ("y":"q"
// carrying "q" = ping/find_node/get_peers/announce_peer and its arguments),
// a response ("y":"r") or an error ("y":"e" with [code, message]).
// Transaction ids correlate a response with its query; the overlay's RPC
// layer enforces the echo. Encoding goes through bencode::Writer and
// decoding through one bencode::Reader pass into a caller-owned message,
// so with warm buffers a whole exchange allocates nothing. The Reader
// validates every byte, including the values a decoder skips: a datagram
// is accepted exactly when it is one well-formed bencode document and
// every field checks out (krpc_mutation_test holds this to a reference
// value-tree decoder).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "dht/node_id.hpp"
#include "net/ip.hpp"

namespace btpub::dht {

/// The four BEP 5 query methods.
enum class Method : std::uint8_t { Ping, FindNode, GetPeers, AnnouncePeer };

std::string_view to_string(Method method);

/// 26-byte-per-node compact node info (BEP 5): 20 id bytes, 4 ip, 2 port.
void append_compact_node(std::string& out, const NodeInfo& node);

/// 6-byte compact peer info (same layout the tracker uses).
void append_compact_peer(std::string& out, const Endpoint& peer);
std::optional<Endpoint> parse_compact_peer(std::string_view blob);

/// A KRPC query message.
struct Query {
  std::string transaction_id;
  Method method = Method::Ping;
  NodeId sender_id{};
  /// find_node: "target" — the id being located.
  NodeId target{};
  /// get_peers / announce_peer: "info_hash".
  Sha1Digest info_hash{};
  /// announce_peer arguments.
  std::uint16_t port = 0;
  std::string token;
  /// BEP 43 read-only flag: receivers must not add the sender to their
  /// routing tables. The crawler vantage sets it so repeated measurement
  /// walks never pollute the overlay they observe.
  bool read_only = false;

  /// Clears `out` and writes the datagram into it, keeping its capacity.
  void encode_into(std::string& out) const;
  /// Decodes into `out`, reusing its string capacity; false (with `out`
  /// unspecified) on any malformed or invalid datagram.
  static bool decode_into(std::string_view datagram, Query& out);
};

/// A KRPC response message.
struct Response {
  std::string transaction_id;
  NodeId sender_id{};
  /// find_node / get_peers: compact nodes closer to the target.
  std::vector<NodeInfo> nodes;
  /// get_peers: stored peers ("values"), when the node has any.
  std::vector<Endpoint> peers;
  /// get_peers: write token for a later announce_peer.
  std::string token;

  void encode_into(std::string& out) const;
  /// Decodes into `out`, reusing its vectors' and strings' capacity; false
  /// (with `out` unspecified) on any malformed or invalid datagram.
  static bool decode_into(std::string_view datagram, Response& out);
};

/// A KRPC error message ([code, message]).
struct ErrorMessage {
  std::string transaction_id;
  std::int64_t code = 201;
  std::string message;

  void encode_into(std::string& out) const;
};

/// BEP 5 error codes used by the node implementation.
inline constexpr std::int64_t kErrorGeneric = 201;
inline constexpr std::int64_t kErrorProtocol = 203;
inline constexpr std::int64_t kErrorUnknownMethod = 204;

/// The reply to a datagram Query::decode_into rejected: 204 "unknown method"
/// when it is a query ("y" = "q") whose "q" string names no BEP 5 method,
/// 203 "malformed query" otherwise. The transaction id is echoed when the
/// datagram is well-formed bencode with a string "t".
ErrorMessage malformed_query_error(std::string_view datagram);

}  // namespace btpub::dht
