// metainfo.hpp — .torrent metainfo files (BEP 3).
//
// Torrents in the simulator are genuine bencoded metainfo documents: the
// portal serves these bytes, the crawler parses them, and the infohash is
// the real SHA-1 of the bencoded info dictionary. Multi-file payload
// listings matter to the study because one of the URL-promotion channels
// the paper identifies is "a text file distributed with the actual content"
// (e.g. "Visit-www-divxatope-com.txt").
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "crypto/sha1.hpp"

namespace btpub {

/// One payload file inside a torrent.
struct FileEntry {
  std::string path;        // relative path, '/'-joined
  std::int64_t length = 0; // bytes
};

/// A .torrent document held without its synthetic `pieces` blob: the
/// bencoded bytes up to and including the blob's string header, the
/// SplitMix64 state the blob expands from, and the bytes after the blob.
/// A parsed or opaque document is all head, with an empty blob.
struct TorrentFile {
  std::string head;
  std::uint64_t pieces_seed = 0;  // stream state before the blob's first word
  std::size_t pieces_size = 0;    // blob bytes (20 per piece)
  std::string tail;

  /// The whole document: head, the blob written out, tail.
  std::string bytes() const;
};

/// Parsed or constructed metainfo document. Either way it holds the
/// .torrent file, and the infohash is the SHA-1 of the `info` value's
/// exact byte span inside its bytes.
class Metainfo {
 public:
  Metainfo() = default;

  /// The piece length a torrent creator picks for `total` bytes: the
  /// smallest power of two >= 256 KiB that keeps the torrent at <= 2048
  /// pieces, capped at 16 MiB (so beyond 32 GiB the count exceeds 2048).
  static std::int64_t creator_piece_length(std::int64_t total) noexcept;

  /// Builds a (single- or multi-file) metainfo, writing the .torrent in one
  /// pass. Without a `piece_length` the creator rule above applies. Piece
  /// hashes are a PRF of (name, salt, total, piece length) — one SHA-1 per
  /// torrent, expanded by SplitMix64 — rather than of payload bytes, since
  /// the simulator never materialises content; the document structure and
  /// the infohash computation are wire-real. The blob streams through the
  /// infohash in fixed chunks and is not stored (see TorrentFile).
  static Metainfo make(std::string announce_url, std::string name,
                       std::vector<FileEntry> files,
                       std::optional<std::int64_t> piece_length = std::nullopt,
                       std::string_view salt = {},
                       std::string comment = {});

  /// The .torrent file bytes, written out: canonical bencode built by
  /// make(), or exactly the bytes given to parse().
  std::string encode() const { return file_.bytes(); }

  /// The .torrent file as held; `std::move(m).file()` hands it over.
  const TorrentFile& file() const& noexcept { return file_; }
  TorrentFile file() && noexcept { return std::move(file_); }

  /// Parses .torrent bytes and keeps them; throws bencode::Error on
  /// malformed documents and std::invalid_argument on missing required
  /// fields.
  static Metainfo parse(std::string torrent_bytes);

  /// SHA-1 of the bencoded info dictionary, as it appears in encode().
  const Sha1Digest& infohash() const noexcept { return infohash_; }

  const std::string& announce_url() const noexcept { return announce_; }
  const std::string& name() const noexcept { return name_; }
  const std::string& comment() const noexcept { return comment_; }
  std::int64_t piece_length() const noexcept { return piece_length_; }
  std::size_t piece_count() const noexcept { return n_pieces_; }
  std::int64_t total_size() const noexcept;
  const std::vector<FileEntry>& files() const noexcept { return files_; }
  bool is_multi_file() const noexcept { return multi_file_; }

 private:
  std::string announce_;
  std::string name_;
  std::string comment_;
  std::int64_t piece_length_ = 0;
  std::size_t n_pieces_ = 0;
  std::vector<FileEntry> files_;
  bool multi_file_ = false;
  Sha1Digest infohash_{};
  TorrentFile file_;
};

}  // namespace btpub
