// Seeded mutation loop and differential check for the KRPC decoders, the
// DHT's parsers of untrusted datagrams. Bit flips, truncations, splices,
// inflated length fields and one-field edits of the decoded tree are
// applied to encoded queries, responses and errors. For every mutant the
// one-pass Reader decoders (Query and Response decode_into) must agree
// with a reference built on the tree decoder (dht_support.hpp) — on
// accept or reject and on every field — and bencode::Reader must accept
// exactly what bencode::decode accepts. A warm decode allocates at most in
// proportion to the mutant, and a warm decode_into / handle_into allocates
// nothing (counted by counting_allocator.hpp).
// Out-of-bounds reads trip the ASan/UBSan build.
#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "bencode/bencode.hpp"
#include "bencode_tree.hpp"
#include "counting_allocator.hpp"
#include "dht/krpc.hpp"
#include "dht/node.hpp"
#include "dht_support.hpp"
#include "util/rng.hpp"

namespace btpub::dht {
namespace {

// ---- field-by-field renderings, so a mismatch prints what differs -----------

std::string show(const std::optional<Query>& q) {
  if (!q) return "reject";
  return "t=" + q->transaction_id + " m=" + std::string(to_string(q->method)) +
         " id=" + q->sender_id.to_digest().hex() + " target=" + q->target.to_digest().hex() +
         " ih=" + q->info_hash.hex() +
         " port=" + std::to_string(q->port) + " token=" + q->token +
         " ro=" + std::to_string(q->read_only);
}

std::string show(const std::optional<Response>& r) {
  if (!r) return "reject";
  std::string out = "t=" + r->transaction_id + " id=" + r->sender_id.to_digest().hex() +
                    " token=" + r->token + " nodes=";
  for (const NodeInfo& n : r->nodes) {
    out += n.id.to_digest().hex() + "@" + std::to_string(n.endpoint.ip.value()) + ":" +
           std::to_string(n.endpoint.port) + ",";
  }
  out += " peers=";
  for (const Endpoint& p : r->peers) {
    out += std::to_string(p.ip.value()) + ":" + std::to_string(p.port) + ",";
  }
  return out;
}

bool reader_accepts(std::string_view datagram) {
  bencode::Reader r(datagram);
  return r.skip() && r.finish();
}

bool tree_accepts(std::string_view datagram) {
  try {
    bencode::decode(datagram);
    return true;
  } catch (const bencode::Error&) {
    return false;
  }
}

// ---- base datagrams ----------------------------------------------------------

NodeId id_from(std::uint64_t seed) {
  NodeId id;
  Rng rng(seed);
  for (auto& b : id.bytes) b = static_cast<std::uint8_t>(rng.index(256));
  return id;
}

Response get_peers_response(std::size_t peers) {
  Response r;
  r.transaction_id = "\x01\x02";
  r.sender_id = id_from(1);
  for (std::uint32_t i = 0; i < 8; ++i) {
    r.nodes.push_back(NodeInfo{id_from(100 + i),
                               Endpoint{IpAddress(0x50000000u + i), 6881}});
  }
  for (std::uint32_t i = 0; i < peers; ++i) {
    r.peers.push_back(Endpoint{IpAddress(0x0A000000u + i * 7), std::uint16_t(6000 + i)});
  }
  r.token = "tok3n!!x";
  return r;
}

std::vector<std::string> base_datagrams() {
  std::vector<std::string> out;
  Query q;
  q.transaction_id = "aa";
  q.sender_id = id_from(2);
  q.method = Method::Ping;
  out.push_back(encode(q));
  q.method = Method::FindNode;
  q.target = id_from(3);
  out.push_back(encode(q));
  q.method = Method::GetPeers;
  q.info_hash = id_from(4).to_digest();
  q.read_only = true;
  out.push_back(encode(q));
  q.method = Method::AnnouncePeer;
  q.read_only = false;
  q.port = 51413;
  q.token = "12345678";
  out.push_back(encode(q));

  out.push_back(encode(get_peers_response(12)));  // with values
  out.push_back(encode(get_peers_response(0)));   // nodes + token only
  Response ping;
  ping.transaction_id = "zz";
  ping.sender_id = id_from(5);
  out.push_back(encode(ping));

  ErrorMessage error;
  error.transaction_id = "ee";
  error.code = kErrorProtocol;
  error.message = "bad token";
  out.push_back(encode(error));

  // Keys the decoders skip (a client version, nested containers) and
  // mistyped optional fields, which both decoders ignore.
  out.push_back(
      "d1:ad5:extrald1:xi1eee2:id20:aaaaaaaaaaaaaaaaaaaa6:target20:"
      "bbbbbbbbbbbbbbbbbbbbe1:q9:find_node2:ro1:11:t2:ab1:v4:UT011:y1:qe");
  out.push_back(
      "d1:rd2:id20:aaaaaaaaaaaaaaaaaaaa5:nodesi7e5:tokenli1ee1:xde"
      "e1:t2:ab1:y1:re");
  return out;
}

// ---- the differential check ---------------------------------------------------

struct Tally {
  int accepted = 0;  // by some reference decoder
  int rejected = 0;  // by all of them
};

/// Warm structs, reused across every mutant: decode_into must not leak a
/// previous datagram's fields into the next.
Query g_query;
Response g_response;

void check_mutant(const std::string& m, Tally& tally) {
  SCOPED_TRACE(::testing::PrintToString(m));
  ASSERT_EQ(reader_accepts(m), tree_accepts(m));

  const std::uint64_t bytes_before = g_alloc_bytes.load(std::memory_order_relaxed);
  const bool query_ok = Query::decode_into(m, g_query);
  const bool response_ok = Response::decode_into(m, g_response);
  // The warm structs hold at most what the datagram spells out.
  EXPECT_LE(g_alloc_bytes.load(std::memory_order_relaxed) - bytes_before,
            4 * m.size() + 256);

  const auto want_query = ref_query(m);
  EXPECT_EQ(show(query_ok ? std::optional<Query>(g_query) : std::nullopt),
            show(want_query));
  EXPECT_EQ(show(decode<Query>(m)), show(want_query));
  const auto want_response = ref_response(m);
  EXPECT_EQ(show(response_ok ? std::optional<Response>(g_response) : std::nullopt),
            show(want_response));
  EXPECT_EQ(show(decode<Response>(m)), show(want_response));

  if (want_query || want_response || ref_error(m)) {
    ++tally.accepted;
  } else {
    ++tally.rejected;
  }
}

TEST(KrpcMutation, CleanDatagramsDecodeLikeTheReference) {
  Tally tally;
  for (const std::string& d : base_datagrams()) check_mutant(d, tally);
  EXPECT_EQ(tally.accepted, static_cast<int>(base_datagrams().size()));
}

TEST(KrpcMutation, BitFlipsAgreeWithTheReference) {
  Rng rng(0xb17f);  // fixed: the same mutations on every run, no corpus
  Tally tally;
  for (const std::string& clean : base_datagrams()) {
    for (std::size_t bit = 0; bit < clean.size() * 8; ++bit) {
      std::string m = clean;
      m[bit / 8] = static_cast<char>(m[bit / 8] ^ (1 << (bit % 8)));
      check_mutant(m, tally);
    }
    for (int k = 0; k < 300; ++k) {
      std::string m = clean;
      for (int flips = 2 + static_cast<int>(rng.index(3)); flips > 0; --flips) {
        const std::size_t bit = rng.index(m.size() * 8);
        m[bit / 8] = static_cast<char>(m[bit / 8] ^ (1 << (bit % 8)));
      }
      check_mutant(m, tally);
    }
  }
  // Flips inside ids, peers and tokens keep a datagram valid; flips in the
  // structure mostly break it. Both paths must have run.
  EXPECT_GT(tally.accepted, 0);
  EXPECT_GT(tally.rejected, 0);
}

TEST(KrpcMutation, TruncationsAreRejected) {
  Tally tally;
  for (const std::string& clean : base_datagrams()) {
    for (std::size_t len = 0; len < clean.size(); ++len) {
      check_mutant(clean.substr(0, len), tally);
    }
  }
  // A proper prefix of a bencoded dict is never a complete datagram.
  EXPECT_EQ(tally.accepted, 0);
}

TEST(KrpcMutation, SplicesAgreeWithTheReference) {
  Rng rng(0x5911ce);
  const std::vector<std::string> bases = base_datagrams();
  Tally tally;
  for (int k = 0; k < 4000; ++k) {
    const std::string& a = bases[rng.index(bases.size())];
    const std::string& b = bases[rng.index(bases.size())];
    check_mutant(a.substr(0, rng.index(a.size() + 1)) +
                     b.substr(rng.index(b.size() + 1)),
                 tally);
  }
  EXPECT_GT(tally.accepted, 0);
  EXPECT_GT(tally.rejected, 0);
}

TEST(KrpcMutation, InflatedLengthFieldsAgreeWithTheReference) {
  Tally tally;
  for (const std::string& clean : base_datagrams()) {
    // Every decimal length field ("12:") and integer body ("i12e").
    for (std::size_t i = 0; i < clean.size();) {
      std::size_t j = i;
      while (j < clean.size() && clean[j] >= '0' && clean[j] <= '9') ++j;
      if (j == i || j == clean.size() || (clean[j] != ':' && clean[j] != 'e')) {
        i = j + 1;
        continue;
      }
      const std::string digits = clean.substr(i, j - i);
      for (const std::string& v :
           {std::to_string(std::stoull(digits) + 1), std::to_string(clean.size()),
            std::to_string(std::uint64_t{1} << 40), std::string("9223372036854775807"),
            std::string("18446744073709551615"), digits + "0", "0" + digits}) {
        check_mutant(clean.substr(0, i) + v + clean.substr(j), tally);
      }
      i = j;
    }
  }
  EXPECT_GT(tally.accepted, 0);  // inflating the announce port
  EXPECT_GT(tally.rejected, 0);
}

/// Every document that differs from `v` by one well-formed edit: a string
/// one byte longer, shorter or empty, an integer off by one or out of
/// port range, a value swapped for another type, a list element or dict
/// key dropped or added. The edits keep the bencode valid, so they reach
/// the field checks the byte-level mutants mostly cannot.
std::vector<bencode::Value> field_variants(const bencode::Value& v) {
  using bencode::Value;
  std::vector<Value> out;
  switch (v.type()) {
    case Value::Type::Integer: {
      const std::int64_t n = v.as_integer();
      for (const std::int64_t m : {n + 1, n - 1, std::int64_t{0}, std::int64_t{-1},
                                   std::int64_t{65536}}) {
        out.emplace_back(m);
      }
      out.emplace_back("1");
      break;
    }
    case Value::Type::String: {
      const std::string& str = v.as_string();
      out.emplace_back(str + "x");
      if (!str.empty()) out.emplace_back(str.substr(0, str.size() - 1));
      out.emplace_back("");
      out.emplace_back(std::int64_t{1});
      out.emplace_back(bencode::List{v});
      break;
    }
    case Value::Type::List: {
      const bencode::List& list = v.as_list();
      for (std::size_t i = 0; i < list.size(); ++i) {
        for (Value& edited : field_variants(list[i])) {
          bencode::List copy = list;
          copy[i] = std::move(edited);
          out.emplace_back(std::move(copy));
        }
        bencode::List dropped = list;
        dropped.erase(dropped.begin() + static_cast<std::ptrdiff_t>(i));
        out.emplace_back(std::move(dropped));
      }
      bencode::List grown = list;
      grown.emplace_back(list.empty() ? Value(std::int64_t{0}) : list.back());
      out.emplace_back(std::move(grown));
      out.emplace_back(std::int64_t{0});
      break;
    }
    case Value::Type::Dict: {
      const bencode::Dict& dict = v.as_dict();
      for (const auto& [key, value] : dict) {
        for (Value& edited : field_variants(value)) {
          bencode::Dict copy = dict;
          copy[key] = std::move(edited);
          out.emplace_back(std::move(copy));
        }
        bencode::Dict dropped = dict;
        dropped.erase(key);
        out.emplace_back(std::move(dropped));
      }
      for (const char* extra : {"0", "zz"}) {
        bencode::Dict grown = dict;
        grown.emplace(extra, std::int64_t{1});
        out.emplace_back(std::move(grown));
      }
      out.emplace_back("d");
      break;
    }
  }
  return out;
}

TEST(KrpcMutation, FieldMutationsAgreeWithTheReference) {
  Tally tally;
  for (const std::string& clean : base_datagrams()) {
    for (const bencode::Value& m : field_variants(bencode::decode(clean))) {
      check_mutant(bencode::encode(m), tally);
    }
  }
  // Edits inside ids, tokens and ignored keys keep a datagram valid;
  // dropped, resized and retyped fields break it.
  EXPECT_GT(tally.accepted, 0);
  EXPECT_GT(tally.rejected, 0);
}

TEST(KrpcMutation, ReaderMatchesTheTreeOnStructuralEdgeCases) {
  std::string deep;
  for (int i = 0; i < 65; ++i) deep += 'l';
  for (int i = 0; i < 65; ++i) deep += 'e';
  std::string too_deep = deep.substr(0, 65) + "i1e" + deep.substr(65);
  for (const std::string& doc :
       {std::string(""), std::string("e"), std::string("de"), std::string("d1:ae"),
        std::string("d1:bi1e1:ai2ee"), std::string("d1:ai1e1:ai2ee"),
        std::string("di1ei2ee"), std::string("d-1:ae"), std::string("i-0e"),
        std::string("i01e"), std::string("4:spamX"), std::string("02:ab"),
        std::string("li1e"), deep, too_deep, deep + "x"}) {
    EXPECT_EQ(reader_accepts(doc), tree_accepts(doc)) << doc;
  }
  EXPECT_TRUE(reader_accepts(deep));
  EXPECT_FALSE(reader_accepts(too_deep));
}

// ---- steady state allocates nothing -------------------------------------------

TEST(KrpcAllocation, WarmDecodeIntoAllocatesNothing) {
  const std::string response_wire = encode(get_peers_response(50));
  const std::string query_wire = base_datagrams()[3];  // announce_peer
  Response response;
  Query query;
  ASSERT_TRUE(Response::decode_into(response_wire, response));
  ASSERT_TRUE(Query::decode_into(query_wire, query));

  int decoded = 0;
  const std::uint64_t before = g_alloc_count.load(std::memory_order_relaxed);
  for (int i = 0; i < 100; ++i) {
    decoded += Response::decode_into(response_wire, response) ? 1 : 0;
    decoded += Query::decode_into(query_wire, query) ? 1 : 0;
  }
  const std::uint64_t after = g_alloc_count.load(std::memory_order_relaxed);
  EXPECT_EQ(decoded, 200);
  EXPECT_EQ(after - before, 0u) << "warm decode_into performed heap allocations";
  EXPECT_EQ(response.peers.size(), 50u);
}

TEST(KrpcAllocation, WarmHandleIntoAllocatesNothing) {
  const Endpoint self{IpAddress(10, 0, 0, 1), 6881};
  DhtNode node(NodeId::for_endpoint(1, self), self, /*token_secret=*/555);
  for (std::uint32_t i = 0; i < 200; ++i) {
    const Endpoint e{IpAddress(0x0B000000u + i * 977), 6881};
    node.table().observe(NodeId::for_endpoint(1, e), e, 0);
  }
  const Sha1Digest info_hash = id_from(9).to_digest();
  for (std::uint32_t i = 0; i < 60; ++i) {
    node.store().announce(info_hash, {IpAddress(0x0C000000u + i), 7000}, 0);
  }
  const Endpoint asker{IpAddress(10, 0, 0, 2), 7000};
  const SimTime now = 10;

  std::vector<std::string> queries;
  Query q;
  q.transaction_id = "t1";
  q.sender_id = NodeId::for_endpoint(1, asker);
  q.method = Method::Ping;
  queries.push_back(encode(q));
  q.method = Method::FindNode;
  q.target = id_from(10);
  queries.push_back(encode(q));
  q.method = Method::GetPeers;
  q.info_hash = info_hash;
  queries.push_back(encode(q));
  q.method = Method::AnnouncePeer;
  q.port = 7000;
  q.token = node.tokens().token_for(asker.ip, now);
  queries.push_back(encode(q));

  std::string out;
  for (const std::string& wire : queries) node.handle_into(wire, asker, now, out);

  std::size_t bytes = 0;
  const std::uint64_t before = g_alloc_count.load(std::memory_order_relaxed);
  for (int i = 0; i < 50; ++i) {
    for (const std::string& wire : queries) {
      node.handle_into(wire, asker, now, out);
      bytes += out.size();
    }
  }
  const std::uint64_t after = g_alloc_count.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0u) << "warm handle_into performed heap allocations";
  EXPECT_GT(bytes, 0u);
  // The last answer (to announce_peer) is a response, not an error.
  EXPECT_EQ(ref_kind(out).value_or('-'), 'r');
}

}  // namespace
}  // namespace btpub::dht
