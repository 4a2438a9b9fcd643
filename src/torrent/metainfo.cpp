#include "torrent/metainfo.hpp"

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

std::uint64_t load_le(const Sha1Digest& d, std::size_t at, std::size_t n) {
  std::uint64_t v = 0;
  for (std::size_t i = n; i-- > 0;) v = (v << 8) | d.bytes[at + i];
  return v;
}

/// Appends the synthetic pieces blob (20 bytes per piece). One SHA-1 of
/// the salted identity seeds a SplitMix64 stream that fills the blob, so
/// the cost is one hash per torrent, not one per piece. The payload is
/// never materialised; what matters downstream is that the blob has the
/// right shape and feeds a stable infohash.
void append_pieces(std::string& out, std::string_view name, std::string_view salt,
                   std::int64_t total, std::int64_t piece_length,
                   std::size_t n_pieces) {
  Sha1 ctx;
  ctx.update(name);
  ctx.update(std::string_view("\0", 1));
  ctx.update(salt);
  ctx.update(std::string_view("\0", 1));
  ctx.update(std::to_string(total));
  ctx.update("/");
  ctx.update(std::to_string(piece_length));
  const Sha1Digest seed = ctx.finish();
  std::uint64_t state =
      derive_seed(load_le(seed, 0, 8), load_le(seed, 8, 8), load_le(seed, 16, 4));

  const std::size_t begin = out.size();
  const std::size_t n = n_pieces * 20;
  out.resize(begin + n);
  char* blob = out.data() + begin;
  for (std::size_t i = 0; i < n; i += 8) {
    std::uint64_t word = splitmix64(state);
    for (std::size_t b = i; b < i + 8 && b < n; ++b, word >>= 8) {
      blob[b] = static_cast<char>(word & 0xff);
    }
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

  // One pass, keys in canonical (ascending) order at every level.
  std::size_t estimate = 96 + m.announce_.size() + m.comment_.size() +
                         m.name_.size() + m.n_pieces_ * 20;
  for (const FileEntry& f : m.files_) estimate += f.path.size() + 48;
  std::string& out = m.bytes_;
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
  w.string_header(m.n_pieces_ * 20);
  append_pieces(out, m.name_, salt, total, m.piece_length_, m.n_pieces_);
  w.end();
  m.infohash_ = Sha1::hash(std::string_view(out).substr(info_begin));
  w.end();
  return m;
}

Metainfo Metainfo::parse(std::string_view torrent_bytes) {
  // One Reader pass holds the whole document to the format's rules (sorted
  // unique keys, canonical integers, nothing after the closing 'e') and
  // yields the `info` value's byte span: BEP 3 defines the infohash over
  // the bytes as they appear in the file, which a re-encoding only
  // reproduces for canonical input. The field checks run after the pass,
  // so a malformed document always reports as bencode::Error.
  bencode::Reader r(torrent_bytes);
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
      info_bytes = torrent_bytes.substr(value_begin, r.pos() - value_begin);
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
  m.bytes_ = std::string(torrent_bytes);
  return m;
}

}  // namespace btpub
