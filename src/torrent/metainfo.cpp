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
  // Walk the top-level dict value by value so the `info` value's byte span
  // is known: BEP 3 defines the infohash over the bytes as they appear in
  // the file, which a re-encoding only reproduces for canonical input. The
  // walk holds the top level to the decoder's own rules (sorted unique
  // keys, nothing after the closing 'e').
  const std::string_view data = torrent_bytes;
  std::size_t pos = 0;
  const auto peek = [&]() -> char {
    if (pos >= data.size()) throw bencode::Error("bencode: truncated input");
    return data[pos];
  };
  if (peek() != 'd') throw bencode::Error("Metainfo: document is not a dict");
  ++pos;
  Metainfo m;
  std::optional<bencode::Value> info;
  std::string_view info_bytes;
  std::string prev_key;
  while (peek() != 'e') {
    const bool first = pos == 1;
    std::string key = bencode::decode_prefix(data, pos).as_string();
    if (!first && key <= prev_key) {
      throw bencode::Error("bencode: dict keys not strictly ascending");
    }
    const std::size_t value_begin = pos;
    bencode::Value value = bencode::decode_prefix(data, pos);
    if (key == "announce" && value.is_string()) {
      m.announce_ = value.as_string();
    } else if (key == "comment" && value.is_string()) {
      m.comment_ = value.as_string();
    } else if (key == "info") {
      info = std::move(value);
      info_bytes = data.substr(value_begin, pos - value_begin);
    }
    prev_key = std::move(key);
  }
  if (++pos != data.size()) throw bencode::Error("bencode: trailing bytes after value");
  if (!info) throw bencode::Error("bencode: missing key 'info'");

  m.name_ = info->find_string("name").value_or("");
  if (m.name_.empty()) throw std::invalid_argument("Metainfo: missing name");
  const auto piece_length = info->find_integer("piece length");
  if (!piece_length || *piece_length <= 0) {
    throw std::invalid_argument("Metainfo: missing piece length");
  }
  m.piece_length_ = *piece_length;
  const bencode::Value* pieces = info->find("pieces");
  if (pieces == nullptr || !pieces->is_string() ||
      pieces->as_string().size() % 20 != 0) {
    throw std::invalid_argument("Metainfo: malformed pieces blob");
  }
  m.n_pieces_ = pieces->as_string().size() / 20;
  if (const bencode::Value* file_list = info->find("files")) {
    m.multi_file_ = true;
    for (const bencode::Value& entry : file_list->as_list()) {
      FileEntry f;
      f.length = entry.find_integer("length").value_or(0);
      std::vector<std::string> parts;
      for (const bencode::Value& part : entry.at("path").as_list()) {
        parts.push_back(part.as_string());
      }
      f.path = join(parts, "/");
      m.files_.push_back(std::move(f));
    }
    if (m.files_.empty()) throw std::invalid_argument("Metainfo: empty file list");
  } else {
    m.multi_file_ = false;
    FileEntry f;
    f.path = m.name_;
    const auto length = info->find_integer("length");
    if (!length) throw std::invalid_argument("Metainfo: missing length");
    f.length = *length;
    m.files_.push_back(std::move(f));
  }
  m.infohash_ = Sha1::hash(info_bytes);
  m.bytes_ = std::string(torrent_bytes);
  return m;
}

}  // namespace btpub
