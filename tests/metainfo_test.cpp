// Metainfo (.torrent) construction, parsing and infohash behaviour.
#include "torrent/metainfo.hpp"

#include <gtest/gtest.h>

#include "bencode/bencode.hpp"
#include "bencode_tree.hpp"
#include "crypto/sha1.hpp"

namespace btpub {
namespace {

Metainfo sample_single() {
  return Metainfo::make("http://tr.example/announce", "Some.Movie.2010.avi",
                        {{"Some.Movie.2010.avi", 734003200}}, 256 * 1024,
                        "salt0");
}

Metainfo sample_multi() {
  return Metainfo::make(
      "http://tr.example/announce", "Some.Movie.2010",
      {{"Some.Movie.2010.avi", 734003200},
       {"Some.Movie.2010.nfo", 4096},
       {"Visit-www-divxatope-com.txt", 120}},
      256 * 1024, "salt1");
}

Metainfo sample_odd() {
  return Metainfo::make("http://tr.example/announce", "odd.bin",
                        {{"odd.bin", 205 * 16384 - 100}}, 16384, "salt2",
                        "205 pieces");
}

Metainfo sample_chunks() {
  return Metainfo::make("http://tr.example/announce", "chunks.bin",
                        {{"chunks.bin", 1024 * 16384}}, 16384, "salt3");
}

TEST(Metainfo, SingleFileRoundTrip) {
  const Metainfo original = sample_single();
  const Metainfo parsed = Metainfo::parse(original.encode());
  EXPECT_EQ(parsed.name(), original.name());
  EXPECT_EQ(parsed.announce_url(), original.announce_url());
  EXPECT_EQ(parsed.piece_length(), original.piece_length());
  EXPECT_EQ(parsed.piece_count(), original.piece_count());
  EXPECT_EQ(parsed.total_size(), original.total_size());
  EXPECT_FALSE(parsed.is_multi_file());
  EXPECT_EQ(parsed.infohash(), original.infohash());
}

TEST(Metainfo, MultiFileRoundTrip) {
  const Metainfo original = sample_multi();
  const Metainfo parsed = Metainfo::parse(original.encode());
  EXPECT_TRUE(parsed.is_multi_file());
  ASSERT_EQ(parsed.files().size(), 3u);
  EXPECT_EQ(parsed.files()[2].path, "Visit-www-divxatope-com.txt");
  EXPECT_EQ(parsed.files()[2].length, 120);
  EXPECT_EQ(parsed.infohash(), original.infohash());
  EXPECT_EQ(parsed.total_size(), original.total_size());
}

TEST(Metainfo, PieceCountCoversTotalSize) {
  const Metainfo m = sample_single();
  const auto pieces = static_cast<std::int64_t>(m.piece_count());
  EXPECT_GE(pieces * m.piece_length(), m.total_size());
  EXPECT_LT((pieces - 1) * m.piece_length(), m.total_size());
}

TEST(Metainfo, InfohashIsStable) {
  EXPECT_EQ(sample_single().infohash(), sample_single().infohash());
}

TEST(Metainfo, InfohashSensitivity) {
  const Metainfo base = sample_single();
  const Metainfo renamed =
      Metainfo::make("http://tr.example/announce", "Other.Name.avi",
                     {{"Other.Name.avi", 734003200}}, 256 * 1024, "salt0");
  const Metainfo resalted =
      Metainfo::make("http://tr.example/announce", "Some.Movie.2010.avi",
                     {{"Some.Movie.2010.avi", 734003200}}, 256 * 1024, "salt9");
  EXPECT_NE(base.infohash(), renamed.infohash());
  EXPECT_NE(base.infohash(), resalted.infohash());
}

TEST(Metainfo, AnnounceNotPartOfInfohash) {
  const Metainfo a = sample_single();
  const Metainfo b =
      Metainfo::make("http://other-tracker.example/announce",
                     "Some.Movie.2010.avi", {{"Some.Movie.2010.avi", 734003200}},
                     256 * 1024, "salt0");
  EXPECT_EQ(a.infohash(), b.infohash());
}

TEST(Metainfo, PathsWithDirectories) {
  const Metainfo m = Metainfo::make("http://tr/a", "pack",
                                    {{"disc1/part1.rar", 1000},
                                     {"disc1/part2.rar", 1000},
                                     {"readme/info.txt", 10}},
                                    16 * 1024, "s");
  const Metainfo parsed = Metainfo::parse(m.encode());
  ASSERT_EQ(parsed.files().size(), 3u);
  EXPECT_EQ(parsed.files()[0].path, "disc1/part1.rar");
  EXPECT_EQ(parsed.files()[2].path, "readme/info.txt");
}

TEST(Metainfo, MakeValidation) {
  EXPECT_THROW(Metainfo::make("http://tr/a", "x", {}), std::invalid_argument);
  EXPECT_THROW(Metainfo::make("http://tr/a", "x", {{"x", 10}}, 0),
               std::invalid_argument);
}

TEST(Metainfo, ParseRejectsMalformed) {
  EXPECT_THROW(Metainfo::parse("not bencode"), bencode::Error);
  // Valid bencode, missing info dict.
  EXPECT_THROW(Metainfo::parse("d8:announce4:httpe"), bencode::Error);
  // Info dict missing required fields.
  const std::string no_name = "d4:infod6:lengthi5e12:piece lengthi1e6:pieces0:ee";
  EXPECT_THROW(Metainfo::parse(no_name), std::invalid_argument);
}

TEST(Metainfo, ParseRejectsBadPiecesBlob) {
  // pieces blob whose length is not a multiple of 20.
  bencode::Dict info;
  info.emplace("name", "x");
  info.emplace("piece length", std::int64_t{16384});
  info.emplace("pieces", "short");
  info.emplace("length", std::int64_t{5});
  bencode::Dict root;
  root.emplace("announce", "http://t/a");
  root.emplace("info", bencode::Value(std::move(info)));
  EXPECT_THROW(Metainfo::parse(bencode::encode(bencode::Value(std::move(root)))),
               std::invalid_argument);
}

TEST(Metainfo, EncodedFormIsCanonicalBencode) {
  // decode(encode()) must not throw and re-encode identically.
  const std::string bytes = sample_multi().encode();
  EXPECT_EQ(bencode::encode(bencode::decode(bytes)), bytes);
}

TEST(Metainfo, CreatorPieceLengthRule) {
  constexpr std::int64_t kKiB = 1024;
  constexpr std::int64_t kMiB = 1024 * kKiB;
  constexpr std::int64_t kGiB = 1024 * kMiB;
  for (const std::int64_t total :
       {std::int64_t{0}, std::int64_t{1}, 256 * kKiB, 512 * kMiB, 512 * kMiB + 1,
        700 * kMiB, 4 * kGiB + 7, 32 * kGiB - 1, 32 * kGiB, 32 * kGiB + 1,
        100 * kGiB, 1024 * kGiB}) {
    SCOPED_TRACE(total);
    const std::int64_t pl = Metainfo::creator_piece_length(total);
    EXPECT_EQ(pl & (pl - 1), 0) << "not a power of two";
    EXPECT_GE(pl, 256 * kKiB);
    EXPECT_LE(pl, 16 * kMiB);
    const std::int64_t pieces = (total + pl - 1) / pl;
    if (total <= 32 * kGiB) {
      EXPECT_LE(pieces, 2048);
      // Smallest such power of two: half of it would need > 2048 pieces.
      if (pl > 256 * kKiB) {
        EXPECT_GT((total + pl / 2 - 1) / (pl / 2), 2048);
      }
    } else {
      EXPECT_EQ(pl, 16 * kMiB);
    }
  }
  EXPECT_EQ(Metainfo::creator_piece_length(512 * kMiB), 256 * kKiB);
  EXPECT_EQ(Metainfo::creator_piece_length(512 * kMiB + 1), 512 * kKiB);
}

TEST(Metainfo, MakeDefaultsToCreatorPieceLength) {
  const Metainfo m = Metainfo::make("http://tr.example/announce", "Some.Movie.2010.avi",
                                    {{"Some.Movie.2010.avi", 734003200}},
                                    std::nullopt, "salt0");
  EXPECT_EQ(m.piece_length(), Metainfo::creator_piece_length(734003200));
  EXPECT_EQ(m.piece_length(), 512 * 1024);
  EXPECT_EQ(m.piece_count(), 1400u);
}

TEST(Metainfo, GoldenInfohash) {
  // Pins the synthesis (piece rule, pieces PRF, encoding) for a fixed
  // (name, files, salt): a change here moves every infohash in every world.
  const Metainfo single = Metainfo::make("http://tr.example/announce",
                                         "Some.Movie.2010.avi",
                                         {{"Some.Movie.2010.avi", 734003200}},
                                         std::nullopt, "salt0");
  EXPECT_EQ(single.infohash().hex(), "1e88ae8dc18d0040c8c3777a92fadee2817c910f");
  const Metainfo multi = Metainfo::make(
      "http://tr.example/announce", "Some.Movie.2010",
      {{"Some.Movie.2010.avi", 734003200},
       {"Some.Movie.2010.nfo", 4096},
       {"Visit-www-divxatope-com.txt", 120}},
      std::nullopt, "salt1");
  EXPECT_EQ(multi.infohash().hex(), "8e6ff87241e75ff05c1164f012a070f687bdec0b");
}

TEST(Metainfo, GoldenBytes) {
  // Pins the whole written-out document, blob included, for blobs of a
  // whole number of words (single), of a partial last word past many
  // hash chunks (multi, 2,801 pieces), of a lone partial word after a
  // 4 KiB chunk (odd, 205 pieces: 4,100 bytes) and of exactly five 4 KiB
  // chunks (chunks, 1,024 pieces: 20,480 bytes).
  EXPECT_EQ(Sha1::hash(sample_single().encode()).hex(),
            "26e59cd2ee092e6ad75ce473b9f43393ea5b0c98");
  EXPECT_EQ(Sha1::hash(sample_multi().encode()).hex(),
            "32a3f4b8250285919254dfb8b488076ea1109115");
  const Metainfo odd = sample_odd();
  ASSERT_EQ(odd.piece_count() * 20 % 8, 4u);
  EXPECT_EQ(Sha1::hash(odd.encode()).hex(),
            "302bc31217ba4bf67b22ab92d00a0cfbfe700c93");
  const Metainfo chunks = sample_chunks();
  ASSERT_EQ(chunks.piece_count() * 20, 5u * 4096);
  EXPECT_EQ(Sha1::hash(chunks.encode()).hex(),
            "9d0dfea91555fe52405eafb9470d8e771c5f29c7");
}

TEST(Metainfo, MakeHashesTheInfoBytesItWrites) {
  // make() hashes the blob as it streams; the infohash must be the SHA-1
  // of the info span of the bytes written out afterwards.
  for (const Metainfo& m :
       {sample_single(), sample_multi(), sample_odd(), sample_chunks()}) {
    const std::string bytes = m.encode();
    const std::size_t info = bytes.find("4:infod");
    ASSERT_NE(info, std::string::npos);
    // The info dict runs from after its key to the root's closing 'e'.
    const std::string_view span =
        std::string_view(bytes).substr(info + 6, bytes.size() - info - 7);
    EXPECT_EQ(m.infohash(), Sha1::hash(span));
  }
}

TEST(Metainfo, MadeFileHoldsNoBlob) {
  const Metainfo m = sample_multi();
  const TorrentFile& file = m.file();
  EXPECT_EQ(file.pieces_size, m.piece_count() * 20);
  EXPECT_TRUE(file.head.ends_with("6:pieces56020:"));
  EXPECT_EQ(file.tail, "ee");
  EXPECT_EQ(file.bytes().size(), file.head.size() + file.pieces_size + 2);
}

TEST(Metainfo, InfohashIsSha1OfTheExactInfoBytes) {
  const std::string pieces(20, '\x5a');
  const std::string info =
      "d6:lengthi5e4:name5:x.bin12:piece lengthi16384e6:pieces20:" + pieces + "e";
  const std::string torrent =
      "d8:announce10:http://t/a7:comment2:hi4:info" + info + "e";
  const Metainfo m = Metainfo::parse(torrent);
  EXPECT_EQ(m.infohash(), Sha1::hash(info));
  EXPECT_EQ(m.name(), "x.bin");
  EXPECT_EQ(m.comment(), "hi");
  EXPECT_EQ(m.piece_count(), 1u);
  EXPECT_EQ(m.total_size(), 5);
  EXPECT_EQ(m.encode(), torrent);  // parse keeps the bytes it was given
  EXPECT_EQ(m.file().head, torrent);
  EXPECT_EQ(m.file().pieces_size, 0u);
}

TEST(Metainfo, UnsortedKeysAreRejectedNotMisHashed) {
  const std::string pieces(20, '\x5a');
  // "name" before "length" inside info: not canonical bencode.
  const std::string unsorted_info =
      "d8:announce10:http://t/a4:infod4:name5:x.bin6:lengthi5e"
      "12:piece lengthi16384e6:pieces20:" + pieces + "ee";
  EXPECT_THROW(Metainfo::parse(unsorted_info), bencode::Error);
  // "info" before "announce" at the top level.
  const std::string unsorted_root =
      "d4:infod6:lengthi5e4:name5:x.bin12:piece lengthi16384e6:pieces20:" +
      pieces + "e8:announce10:http://t/ae";
  EXPECT_THROW(Metainfo::parse(unsorted_root), bencode::Error);
  // A repeated top-level key and trailing bytes are rejected too.
  const std::string good = sample_single().encode();
  EXPECT_THROW(Metainfo::parse(good + "x"), bencode::Error);
  const std::string twice = "d8:announce1:a8:announce1:b" + good.substr(1);
  EXPECT_THROW(Metainfo::parse(twice), bencode::Error);
}

class PieceLengthSweep : public ::testing::TestWithParam<std::int64_t> {};

TEST_P(PieceLengthSweep, RoundTripAcrossPieceLengths) {
  const Metainfo m = Metainfo::make("http://tr/a", "f", {{"f", 1000000}},
                                    GetParam(), "s");
  const Metainfo parsed = Metainfo::parse(m.encode());
  EXPECT_EQ(parsed.piece_count(), m.piece_count());
  EXPECT_EQ(parsed.infohash(), m.infohash());
}

INSTANTIATE_TEST_SUITE_P(Lengths, PieceLengthSweep,
                         ::testing::Values(16 * 1024, 256 * 1024, 1 << 20,
                                           999));

}  // namespace
}  // namespace btpub
