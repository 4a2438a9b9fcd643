#include "torrent/metainfo.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <numeric>
#include <stdexcept>

#include "bencode/bencode.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

namespace btpub {
namespace {

constexpr std::int64_t kMinPieceLength = 256 * 1024;
constexpr std::int64_t kMaxPieceLength = 16 * 1024 * 1024;
constexpr std::int64_t kTargetPieces = 2048;

/// Blob bytes per chunk that make() hashes and bytes() appends; a multiple
/// of 8, so every chunk but the last ends on a word boundary.
constexpr std::size_t kPiecesChunk = 4096;

std::uint64_t load_le(const Sha1Digest& d, std::size_t at, std::size_t n) {
  std::uint64_t v = 0;
  for (std::size_t i = n; i-- > 0;) v = (v << 8) | d.bytes[at + i];
  return v;
}

/// The SplitMix64 state the synthetic pieces blob expands from. One SHA-1
/// of the salted identity seeds it, so the cost is one hash per torrent,
/// not one per piece. The payload is never materialised; what matters
/// downstream is that the blob has the right shape and feeds a stable
/// infohash.
std::uint64_t pieces_seed(std::string_view name, std::string_view salt,
                          std::int64_t total, std::int64_t piece_length) {
  Sha1 ctx;
  ctx.update(name);
  ctx.update(std::string_view("\0", 1));
  ctx.update(salt);
  ctx.update(std::string_view("\0", 1));
  ctx.update(std::to_string(total));
  ctx.update("/");
  ctx.update(std::to_string(piece_length));
  const Sha1Digest seed = ctx.finish();
  return derive_seed(load_le(seed, 0, 8), load_le(seed, 8, 8), load_le(seed, 16, 4));
}

/// Writes the next `n` blob bytes of the stream at `state`: each word
/// little-endian, and a trailing partial word low byte first. Any chunk
/// but the last must be a multiple of 8 bytes. Each word is computed from
/// its index (see mix64), so no word waits on the one before it.
void fill_pieces(std::uint64_t& state, char* out, std::size_t n) {
  const std::size_t words = n / 8;
  for (std::size_t i = 0; i < words; ++i) {
    std::uint64_t word = mix64(state + i * kSplitMix64Gamma);
    if constexpr (std::endian::native == std::endian::big) {
      word = __builtin_bswap64(word);
    }
    std::memcpy(out + 8 * i, &word, 8);
  }
  state += words * kSplitMix64Gamma;
  if (n % 8 != 0) {
    std::uint64_t word = splitmix64(state);
    for (std::size_t i = 8 * words; i < n; ++i, word >>= 8) {
      out[i] = static_cast<char>(word & 0xff);
    }
  }
}

/// Hands the `size`-byte blob of the stream at `seed` to `sink` as
/// std::string_views of at most kPiecesChunk bytes, in order.
template <typename Sink>
void stream_pieces(std::uint64_t seed, std::size_t size, Sink&& sink) {
  char chunk[kPiecesChunk];
  for (std::size_t done = 0; done < size; done += kPiecesChunk) {
    const std::size_t n = std::min(kPiecesChunk, size - done);
    fill_pieces(seed, chunk, n);
    sink(std::string_view(chunk, n));
  }
}

using Type = bencode::Reader::Type;

/// The `info` fields parse() reads. A field of the wrong type reads as
/// absent, as an unknown key does.
struct InfoFields {
  std::string_view name;
  std::optional<std::int64_t> piece_length;
  std::optional<std::string_view> pieces;
  std::optional<std::int64_t> length;
  bool has_files = false;
  /// `files` is not a list of dicts that each hold a `path` list of
  /// strings; once set, no further entry is kept.
  bool files_malformed = false;
  std::vector<FileEntry> files;
};

/// Reads one `files` entry: a dict whose `path` parts are '/'-joined and
/// whose `length` defaults to 0.
void read_file_entry(bencode::Reader& r, InfoFields& info) {
  if (info.files_malformed || r.peek() != Type::Dict) {
    info.files_malformed = true;
    r.skip();
    return;
  }
  r.enter_dict();
  FileEntry f;
  bool has_path = false;
  std::string_view key;
  while (r.next_key(key)) {
    if (key == "length" && r.peek() == Type::Integer) {
      r.integer(f.length);
    } else if (key == "path" && r.peek() == Type::List) {
      has_path = true;
      r.enter_list();
      for (std::size_t n = 0; r.next_item(); ++n) {
        std::string_view part;
        if (r.peek() != Type::String) {
          info.files_malformed = true;
          r.skip();
        } else if (r.string(part)) {
          if (n > 0) f.path += '/';
          f.path += part;
        }
      }
    } else {
      if (key == "path") info.files_malformed = true;
      r.skip();
    }
  }
  if (!has_path) info.files_malformed = true;
  if (!info.files_malformed) info.files.push_back(std::move(f));
}

/// Reads the `info` value; one that is not a dict has none of the fields.
void read_info(bencode::Reader& r, InfoFields& info) {
  if (r.peek() != Type::Dict) {
    r.skip();
    return;
  }
  r.enter_dict();
  std::string_view key;
  while (r.next_key(key)) {
    if (key == "name" && r.peek() == Type::String) {
      r.string(info.name);
    } else if (key == "piece length" && r.peek() == Type::Integer) {
      std::int64_t v = 0;
      if (r.integer(v)) info.piece_length = v;
    } else if (key == "pieces" && r.peek() == Type::String) {
      std::string_view v;
      if (r.string(v)) info.pieces = v;
    } else if (key == "length" && r.peek() == Type::Integer) {
      std::int64_t v = 0;
      if (r.integer(v)) info.length = v;
    } else if (key == "files") {
      info.has_files = true;
      if (r.peek() == Type::List) {
        r.enter_list();
        while (r.next_item()) read_file_entry(r, info);
      } else {
        info.files_malformed = true;
        r.skip();
      }
    } else {
      r.skip();
    }
  }
}

}  // namespace

std::string TorrentFile::bytes() const {
  std::string out;
  out.reserve(head.size() + pieces_size + tail.size());
  out += head;
  stream_pieces(pieces_seed, pieces_size,
                [&out](std::string_view chunk) { out += chunk; });
  out += tail;
  return out;
}

std::int64_t Metainfo::creator_piece_length(std::int64_t total) noexcept {
  std::int64_t piece_length = kMinPieceLength;
  while (piece_length < kMaxPieceLength && total > kTargetPieces * piece_length) {
    piece_length *= 2;
  }
  return piece_length;
}

std::int64_t Metainfo::total_size() const noexcept {
  return std::accumulate(files_.begin(), files_.end(), std::int64_t{0},
                         [](std::int64_t acc, const FileEntry& f) {
                           return acc + f.length;
                         });
}

Metainfo Metainfo::make(std::string announce_url, std::string name,
                        std::vector<FileEntry> files,
                        std::optional<std::int64_t> piece_length,
                        std::string_view salt, std::string comment) {
  if (files.empty()) throw std::invalid_argument("Metainfo: no files");
  Metainfo m;
  m.files_ = std::move(files);
  const std::int64_t total = m.total_size();
  m.piece_length_ = piece_length.value_or(creator_piece_length(total));
  if (m.piece_length_ <= 0) throw std::invalid_argument("Metainfo: bad piece length");
  m.announce_ = std::move(announce_url);
  m.name_ = std::move(name);
  m.comment_ = std::move(comment);
  m.multi_file_ = m.files_.size() > 1;
  m.n_pieces_ =
      static_cast<std::size_t>((total + m.piece_length_ - 1) / m.piece_length_);
  if (m.n_pieces_ == 0) m.n_pieces_ = 1;

  // One pass, keys in canonical (ascending) order at every level. The head
  // runs to the pieces string header; the blob streams into the infohash
  // and is not kept.
  std::size_t estimate = 96 + m.announce_.size() + m.comment_.size() + m.name_.size();
  for (const FileEntry& f : m.files_) estimate += f.path.size() + 48;
  TorrentFile& file = m.file_;
  std::string& out = file.head;
  out.reserve(estimate);
  bencode::Writer w(out);
  w.begin_dict();
  w.key("announce");
  w.string(m.announce_);
  if (!m.comment_.empty()) {
    w.key("comment");
    w.string(m.comment_);
  }
  w.key("info");
  const std::size_t info_begin = out.size();
  w.begin_dict();
  if (m.multi_file_) {
    w.key("files");
    w.begin_list();
    for (const FileEntry& f : m.files_) {
      w.begin_dict();
      w.key("length");
      w.integer(f.length);
      w.key("path");
      w.begin_list();
      for (const std::string_view part : split_views(f.path, '/')) w.string(part);
      w.end();
      w.end();
    }
    w.end();
  } else {
    w.key("length");
    w.integer(m.files_.front().length);
  }
  w.key("name");
  w.string(m.name_);
  w.key("piece length");
  w.integer(m.piece_length_);
  w.key("pieces");
  file.pieces_size = m.n_pieces_ * 20;
  w.string_header(file.pieces_size);
  file.pieces_seed = pieces_seed(m.name_, salt, total, m.piece_length_);

  Sha1 infohash;
  infohash.update(std::string_view(out).substr(info_begin));
  stream_pieces(file.pieces_seed, file.pieces_size,
                [&infohash](std::string_view chunk) { infohash.update(chunk); });
  bencode::Writer tail(file.tail);
  tail.end();  // info
  infohash.update(file.tail);
  m.infohash_ = infohash.finish();
  tail.end();  // root
  return m;
}

Metainfo Metainfo::parse(std::string torrent_bytes) {
  // One Reader pass holds the whole document to the format's rules (sorted
  // unique keys, canonical integers, nothing after the closing 'e') and
  // yields the `info` value's byte span: BEP 3 defines the infohash over
  // the bytes as they appear in the file, which a re-encoding only
  // reproduces for canonical input. The field checks run after the pass,
  // so a malformed document always reports as bencode::Error.
  const std::string_view doc = torrent_bytes;
  bencode::Reader r(doc);
  if (r.peek() != Type::Dict) throw bencode::Error("Metainfo: document is not a dict");
  r.enter_dict();
  std::string_view announce;
  std::string_view comment;
  std::optional<std::string_view> info_bytes;
  InfoFields info;
  std::string_view key;
  while (r.next_key(key)) {
    const std::size_t value_begin = r.pos();
    if (key == "announce" && r.peek() == Type::String) {
      r.string(announce);
    } else if (key == "comment" && r.peek() == Type::String) {
      r.string(comment);
    } else if (key == "info") {
      read_info(r, info);
      info_bytes = doc.substr(value_begin, r.pos() - value_begin);
    } else {
      r.skip();
    }
  }
  if (!r.finish()) throw bencode::Error(r.error());
  if (!info_bytes) throw bencode::Error("bencode: missing key 'info'");

  if (info.name.empty()) throw std::invalid_argument("Metainfo: missing name");
  if (!info.piece_length || *info.piece_length <= 0) {
    throw std::invalid_argument("Metainfo: missing piece length");
  }
  if (!info.pieces || info.pieces->size() % 20 != 0) {
    throw std::invalid_argument("Metainfo: malformed pieces blob");
  }
  if (info.files_malformed) throw bencode::Error("Metainfo: malformed file list");
  Metainfo m;
  m.announce_ = announce;
  m.comment_ = comment;
  m.name_ = info.name;
  m.piece_length_ = *info.piece_length;
  m.n_pieces_ = info.pieces->size() / 20;
  m.multi_file_ = info.has_files;
  if (info.has_files) {
    if (info.files.empty()) throw std::invalid_argument("Metainfo: empty file list");
    m.files_ = std::move(info.files);
  } else {
    if (!info.length) throw std::invalid_argument("Metainfo: missing length");
    m.files_.push_back(FileEntry{m.name_, *info.length});
  }
  m.infohash_ = Sha1::hash(*info_bytes);
  m.file_.head = std::move(torrent_bytes);  // the views above are done with
  return m;
}

}  // namespace btpub
