// Seeded mutation loop for Metainfo::parse, the crawler's parser of
// untrusted .torrent bytes. Bit flips, truncations, splices and inflated
// length fields are applied to generated torrents; every mutant must
// either throw bencode::Error / std::invalid_argument, or parse with an
// infohash equal to the SHA-1 of its own `info` bytes. Allocation during
// each parse is bounded by the mutant's size (counted by
// counting_allocator.hpp), so no length field can make
// the parser reserve memory the input does not back. Out-of-bounds reads
// trip the ASan/UBSan build.
#include <gtest/gtest.h>

#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "bencode/bencode.hpp"
#include "bencode_tree.hpp"
#include "counting_allocator.hpp"
#include "torrent/metainfo.hpp"
#include "util/rng.hpp"

namespace btpub {
namespace {

// Allocation bounds for one parse of an n-byte document that the caller
// hands over, as fetch_record does, so parse keeps it without a copy. The
// largest single block is a field copied out of the input (<= n) or the
// file vector, whose 40-byte entries each need >= 20 input bytes
// ("d6:lengthi0e4:pathlee") and whose capacity at most doubles past its
// size. The total adds the vector's earlier capacities and every string
// copied out of the input; the slack covers an exception's message. Over
// the mutants below, parse stays within n + 63 bytes per block and
// 2n + 152 in total.
constexpr std::uint64_t kMaxBlockPerByte = 4;
constexpr std::uint64_t kMaxTotalPerByte = 16;
constexpr std::uint64_t kSlackBytes = 1024;

struct Tally {
  int parsed = 0;
  int rejected = 0;
};

/// Parses one mutant and checks the contract; returns into `tally`.
void check_mutant(const std::string& mutant, Tally& tally) {
  SCOPED_TRACE("mutant of " + std::to_string(mutant.size()) + " bytes");
  std::string doc = mutant;
  g_alloc_bytes.store(0, std::memory_order_relaxed);
  g_alloc_max.store(0, std::memory_order_relaxed);
  std::optional<Metainfo> m;
  try {
    m.emplace(Metainfo::parse(std::move(doc)));
  } catch (const bencode::Error&) {
  } catch (const std::invalid_argument&) {
  }
  const std::uint64_t total = g_alloc_bytes.load(std::memory_order_relaxed);
  const std::uint64_t block = g_alloc_max.load(std::memory_order_relaxed);
  EXPECT_LE(block, kMaxBlockPerByte * mutant.size() + kSlackBytes);
  EXPECT_LE(total, kMaxTotalPerByte * mutant.size() + kSlackBytes);
  if (!m) {
    ++tally.rejected;
    return;
  }
  ++tally.parsed;
  // The strict decoder accepts only canonical bencode, so re-encoding the
  // decoded `info` value reproduces the document's own info bytes.
  const bencode::Value root = bencode::decode(mutant);
  EXPECT_EQ(m->infohash(), Sha1::hash(bencode::encode(root.at("info"))));
  EXPECT_EQ(m->encode(), mutant);
}

std::vector<std::string> base_torrents() {
  return {
      Metainfo::make("http://tr.example/announce", "Some.Movie.2010.avi",
                     {{"Some.Movie.2010.avi", 734003200}}, std::nullopt, "s0")
          .encode(),
      Metainfo::make("http://tr.example/announce", "pack",
                     {{"disc1/part1.rar", 1500000},
                      {"disc1/part2.rar", 1500000},
                      {"Visit-www-divxatope-com.txt", 120}},
                     16 * 1024, "s1", "ripped by someone")
          .encode(),
  };
}

/// Offsets of every decimal length field ("123:") and integer body
/// ("i123e") in `doc`, as [begin, end) digit spans.
std::vector<std::pair<std::size_t, std::size_t>> number_spans(const std::string& doc) {
  std::vector<std::pair<std::size_t, std::size_t>> spans;
  for (std::size_t i = 0; i < doc.size();) {
    if (doc[i] < '0' || doc[i] > '9') {
      ++i;
      continue;
    }
    std::size_t j = i;
    while (j < doc.size() && doc[j] >= '0' && doc[j] <= '9') ++j;
    if (j < doc.size() && (doc[j] == ':' || doc[j] == 'e')) spans.emplace_back(i, j);
    i = j;
  }
  return spans;
}

TEST(MetainfoMutation, CleanTorrentsParseWithTheirOwnInfohash) {
  Tally tally;
  for (const std::string& doc : base_torrents()) check_mutant(doc, tally);
  EXPECT_EQ(tally.parsed, 2);
}

TEST(MetainfoMutation, BitFlipsThrowOrHashTheirOwnInfo) {
  Rng rng(0x70aa);  // fixed: the same mutations on every run, no corpus
  Tally tally;
  for (const std::string& clean : base_torrents()) {
    // Every bit of the structural prefix (everything before the pieces
    // blob), then random bits anywhere.
    const std::size_t prefix = clean.find("6:pieces");
    ASSERT_NE(prefix, std::string::npos);
    for (std::size_t bit = 0; bit < (prefix + 16) * 8; ++bit) {
      std::string m = clean;
      m[bit / 8] = static_cast<char>(m[bit / 8] ^ (1 << (bit % 8)));
      check_mutant(m, tally);
    }
    for (int k = 0; k < 500; ++k) {
      std::string m = clean;
      for (int flips = 1 + static_cast<int>(rng.index(3)); flips > 0; --flips) {
        const std::size_t bit = rng.index(m.size() * 8);
        m[bit / 8] = static_cast<char>(m[bit / 8] ^ (1 << (bit % 8)));
      }
      check_mutant(m, tally);
    }
  }
  // Flips inside the pieces blob keep the document valid; flips in the
  // structure mostly break it. Both paths must have run.
  EXPECT_GT(tally.parsed, 0);
  EXPECT_GT(tally.rejected, 0);
}

TEST(MetainfoMutation, TruncationsAreRejected) {
  Tally tally;
  for (const std::string& clean : base_torrents()) {
    for (std::size_t len = 0; len < clean.size(); len += len < 512 ? 1 : 97) {
      check_mutant(clean.substr(0, len), tally);
    }
  }
  // A proper prefix of a bencoded dict is never a complete document.
  EXPECT_EQ(tally.parsed, 0);
}

TEST(MetainfoMutation, SplicesThrowOrHashTheirOwnInfo) {
  Rng rng(0x5911ce);
  const std::vector<std::string> bases = base_torrents();
  Tally tally;
  for (int k = 0; k < 2000; ++k) {
    const std::string& a = bases[rng.index(bases.size())];
    const std::string& b = bases[rng.index(bases.size())];
    const std::size_t cut_a = rng.index(a.size() + 1);
    const std::size_t cut_b = rng.index(b.size() + 1);
    check_mutant(a.substr(0, cut_a) + b.substr(cut_b), tally);
  }
  // Splicing at the same offset of the same document reproduces it.
  check_mutant(bases[1].substr(0, 40) + bases[1].substr(40), tally);
  EXPECT_GT(tally.parsed, 0);
  EXPECT_GT(tally.rejected, 0);
}

TEST(MetainfoMutation, InflatedLengthFieldsAreRejectedInBoundedMemory) {
  Tally tally;
  for (const std::string& clean : base_torrents()) {
    for (const auto& [begin, end] : number_spans(clean)) {
      const std::string digits = clean.substr(begin, end - begin);
      for (const std::string& v :
           {std::to_string(std::stoull(digits) + 1),
            std::to_string(clean.size()), std::to_string(std::uint64_t{1} << 40),
            std::string("9223372036854775807"), std::string("18446744073709551615"),
            digits + "0"}) {
        check_mutant(clean.substr(0, begin) + v + clean.substr(end), tally);
      }
    }
  }
  // Inflating an integer value (a file length, the piece length) keeps the
  // document valid; inflating a string length breaks its framing.
  EXPECT_GT(tally.parsed, 0);
  EXPECT_GT(tally.rejected, 0);
}

}  // namespace
}  // namespace btpub
