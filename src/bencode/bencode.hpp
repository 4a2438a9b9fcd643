// bencode.hpp — the bencode format (BEP 3): Writer encodes, Reader decodes.
//
// The simulator keeps the *formats* real even though no sockets are opened:
// .torrent metainfo files, tracker announce responses and DHT datagrams are
// produced and consumed as genuine bencoded byte strings, so the crawler
// exercises the same parsing path a real measurement apparatus would.
// Neither type builds a document tree: the Writer appends to a caller-owned
// buffer and the Reader walks the input in place.
#pragma once

#include <array>
#include <charconv>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>

namespace btpub::bencode {

/// Error thrown on malformed bencode input.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

/// Streaming encoder that appends canonical bencoding directly into a
/// caller-owned buffer — no document tree, no intermediate strings. Once the
/// buffer's capacity has grown to the steady-state reply size, encoding is
/// allocation-free, which is what the tracker's announce fast path relies
/// on. The writer does not validate nesting; callers are expected to emit
/// well-formed sequences (dict keys in ascending byte order, every begin_*
/// matched by an end).
class Writer {
 public:
  /// Appends to `out`; the buffer is NOT cleared (callers that want a
  /// fresh message clear it themselves and keep the capacity).
  explicit Writer(std::string& out) : out_(&out) {}

  // Inline: a KRPC datagram makes a dozen of these calls.
  void integer(std::int64_t v) {
    *out_ += 'i';
    append_decimal(v);
    *out_ += 'e';
  }
  void string(std::string_view bytes) {
    string_header(bytes.size());
    out_->append(bytes);
  }
  /// Dict key — identical encoding to string(), named for call-site
  /// clarity.
  void key(std::string_view k) { string(k); }

  /// Emits the "<n>:" header of a byte string whose n payload bytes the
  /// caller will append directly to buffer() (e.g. a compact-peer blob
  /// written in place).
  void string_header(std::size_t n) {
    append_decimal(static_cast<std::int64_t>(n));
    *out_ += ':';
  }

  void begin_list() { *out_ += 'l'; }
  void begin_dict() { *out_ += 'd'; }
  void end() { *out_ += 'e'; }

  std::string& buffer() noexcept { return *out_; }

 private:
  /// Appends the decimal digits of `v` without going through
  /// std::to_string (keeps the writer allocation-free regardless of SSO
  /// limits).
  void append_decimal(std::int64_t v) {
    if (v >= 0 && v <= 9) {  // most keys, flags and small counts
      *out_ += static_cast<char>('0' + v);
      return;
    }
    char buf[24];
    const auto res = std::to_chars(buf, buf + sizeof buf, v);
    out_->append(buf, res.ptr);
  }

  std::string* out_;
};

/// Strict, non-allocating pull reader: a cursor over the input that yields
/// integers and string spans (views into the input), enters lists and
/// dicts, and skips values. It enforces every rule of the format in one
/// place — canonical integers (no "-0", no leading zeros, in int64 range),
/// string lengths inside the input, dict keys in strictly ascending byte
/// order, at most kMaxDepth enclosing containers around any value — and
/// finish() adds "nothing after the top-level value". Every parser in the
/// product (metainfo, announce replies, KRPC) walks its input with it, so
/// they all accept exactly the same documents.
///
/// Errors are sticky: the first violation records a reason and offset,
/// and every later call returns false (peek() returns Type::Invalid).
/// Usage: after next_key() or next_item() returns true, the caller reads
/// exactly one value (integer/string/enter_*/skip); they return false at
/// the container's end — ok() tells the end from an error.
class Reader {
 public:
  /// Containers allowed around a value; the top-level value has depth 0.
  static constexpr std::size_t kMaxDepth = 64;

  enum class Type : std::uint8_t { Integer, String, List, Dict, End, Invalid };

  explicit Reader(std::string_view data) noexcept : data_(data) {}

  /// The kind of the next value from its first byte; End at a 'e', Invalid
  /// on any other byte, at the end of input, or after an error. Consumes
  /// nothing and never fails.
  Type peek() const noexcept;

  /// Read one value of the named type; on a value of another type they
  /// fail like any malformed input, so peek() first where the type is not
  /// required.
  bool integer(std::int64_t& out);
  bool string(std::string_view& out);
  bool enter_list();
  bool enter_dict();
  /// In a dict: reads the next key, or consumes the closing 'e' and
  /// returns false.
  bool next_key(std::string_view& key);
  /// In a list: true when another item follows, else consumes the closing
  /// 'e' and returns false.
  bool next_item();
  /// Skips one value, validating all of it.
  bool skip();
  /// Call after the top-level value: true when it was read without error
  /// and the input ends there.
  bool finish();

  bool ok() const noexcept { return error_ == nullptr; }
  /// "bencode: <reason> at offset N"; empty while ok().
  std::string error() const;
  std::size_t pos() const noexcept { return pos_; }

 private:
  struct Frame {
    std::string_view prev_key;
    bool dict = false;
    bool has_key = false;
  };

  bool fail(const char* reason) noexcept;
  bool begin_value() noexcept;
  bool read_number(char terminator, std::int64_t& out) noexcept;
  bool read_string(std::string_view& out) noexcept;
  bool enter(char open, bool dict) noexcept;
  bool at_close() noexcept;

  std::string_view data_;
  std::size_t pos_ = 0;
  std::size_t depth_ = 0;
  const char* error_ = nullptr;
  std::size_t error_pos_ = 0;
  std::array<Frame, kMaxDepth + 1> frames_{};
};

}  // namespace btpub::bencode
