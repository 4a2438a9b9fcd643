#include "bencode/bencode.hpp"

#include <charconv>

namespace btpub::bencode {

// ---- Reader ---------------------------------------------------------------

Reader::Type Reader::peek() const noexcept {
  if (error_ != nullptr || pos_ >= data_.size()) return Type::Invalid;
  const char c = data_[pos_];
  if (c == 'i') return Type::Integer;
  if (c == 'l') return Type::List;
  if (c == 'd') return Type::Dict;
  if (c >= '0' && c <= '9') return Type::String;
  if (c == 'e') return Type::End;
  return Type::Invalid;
}

bool Reader::fail(const char* reason) noexcept {
  if (error_ == nullptr) {
    error_ = reason;
    error_pos_ = pos_;
  }
  return false;
}

bool Reader::begin_value() noexcept {
  if (error_ != nullptr) return false;
  if (depth_ > kMaxDepth) return fail("nesting too deep");
  if (pos_ >= data_.size()) return fail("truncated input");
  return true;
}

bool Reader::read_number(char terminator, std::int64_t& out) noexcept {
  // Fast path: one digit, then the terminator ("4:", "i1e"), which covers
  // most keys and flags. A lone digit is always canonical, so this accepts
  // exactly what the general path below accepts.
  if (data_.size() - pos_ >= 2 && data_[pos_ + 1] == terminator &&
      data_[pos_] >= '0' && data_[pos_] <= '9') {
    out = data_[pos_] - '0';
    pos_ += 2;
    return true;
  }
  const std::size_t start = pos_;
  if (pos_ < data_.size() && data_[pos_] == '-') ++pos_;
  while (pos_ < data_.size() && data_[pos_] >= '0' && data_[pos_] <= '9') {
    ++pos_;
  }
  const std::string_view digits = data_.substr(start, pos_ - start);
  if (digits.empty() || digits == "-") return fail("malformed integer");
  // i-0e and leading zeroes are invalid per BEP 3.
  if (digits == "-0" || (digits.size() > 1 && digits[0] == '0') ||
      (digits.size() > 2 && digits[0] == '-' && digits[1] == '0')) {
    return fail("non-canonical integer");
  }
  const auto result =
      std::from_chars(digits.data(), digits.data() + digits.size(), out);
  if (result.ec != std::errc{}) return fail("integer out of range");
  if (pos_ >= data_.size()) return fail("truncated input");
  if (data_[pos_] != terminator) return fail("bad integer terminator");
  ++pos_;
  return true;
}

bool Reader::read_string(std::string_view& out) noexcept {
  std::int64_t len = 0;
  if (!read_number(':', len)) return false;
  if (len < 0) return fail("negative string length");
  if (static_cast<std::uint64_t>(len) > data_.size() - pos_) {
    return fail("string exceeds input");
  }
  out = data_.substr(pos_, static_cast<std::size_t>(len));
  pos_ += out.size();
  return true;
}

bool Reader::integer(std::int64_t& out) {
  if (!begin_value()) return false;
  if (data_[pos_] != 'i') return fail("unexpected byte");
  ++pos_;
  return read_number('e', out);
}

bool Reader::string(std::string_view& out) {
  if (!begin_value()) return false;
  if (data_[pos_] < '0' || data_[pos_] > '9') return fail("unexpected byte");
  return read_string(out);
}

bool Reader::enter(char open, bool dict) noexcept {
  if (!begin_value()) return false;
  if (data_[pos_] != open) return fail("unexpected byte");
  ++pos_;
  frames_[depth_] = Frame{{}, dict, false};  // depth_ <= kMaxDepth here
  ++depth_;
  return true;
}

bool Reader::enter_list() { return enter('l', false); }
bool Reader::enter_dict() { return enter('d', true); }

bool Reader::at_close() noexcept {
  if (pos_ >= data_.size()) return fail("truncated input");
  if (data_[pos_] != 'e') return false;
  ++pos_;
  --depth_;
  return true;
}

bool Reader::next_item() {
  if (error_ != nullptr) return false;
  if (depth_ == 0 || frames_[depth_ - 1].dict) return fail("not in a list");
  return !at_close() && ok();
}

bool Reader::next_key(std::string_view& key) {
  if (error_ != nullptr) return false;
  if (depth_ == 0 || !frames_[depth_ - 1].dict) return fail("not in a dict");
  Frame& frame = frames_[depth_ - 1];
  if (at_close() || !ok() || !read_string(key)) return false;
  if (frame.has_key && key <= frame.prev_key) {
    return fail("dict keys not strictly ascending");
  }
  frame.prev_key = key;
  frame.has_key = true;
  return true;
}

bool Reader::skip() {
  switch (peek()) {
    case Type::Integer: {
      std::int64_t v = 0;
      return integer(v);
    }
    case Type::String: {
      std::string_view s;
      return string(s);
    }
    case Type::List:
      if (!enter_list()) return false;
      while (next_item()) {
        if (!skip()) return false;
      }
      return ok();
    case Type::Dict: {
      if (!enter_dict()) return false;
      std::string_view key;
      while (next_key(key)) {
        if (!skip()) return false;
      }
      return ok();
    }
    case Type::End:
    case Type::Invalid:
      break;
  }
  // Not the start of a value: record why (depth, truncation or the byte).
  return begin_value() && fail("unexpected byte");
}

bool Reader::finish() {
  if (error_ != nullptr) return false;
  if (depth_ != 0) return fail("unclosed container");
  if (pos_ != data_.size()) return fail("trailing bytes after value");
  return true;
}

std::string Reader::error() const {
  if (error_ == nullptr) return {};
  std::string out = "bencode: ";
  out += error_;
  out += " at offset ";
  out += std::to_string(error_pos_);
  return out;
}

}  // namespace btpub::bencode
