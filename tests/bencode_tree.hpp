// bencode_tree.hpp — the bencode value tree, kept as the tests' reference
// oracle. The product reads bencode only through bencode::Reader and writes
// it only through bencode::Writer (src/bencode); the tests hold those to
// this independent model: a Value per document node, decode() built one
// Value per Reader step (so it accepts exactly what the Reader accepts),
// and a naive recursive encode() to compare Writer bytes against.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "bencode/bencode.hpp"

namespace btpub::bencode {

class Value;

using List = std::vector<Value>;
// Bencode dictionaries are ordered by raw byte string; std::map matches the
// canonical-encoding requirement (keys sorted) for free.
using Dict = std::map<std::string, Value>;

/// A bencode value: integer, byte string, list or dictionary.
class Value {
 public:
  enum class Type { Integer, String, List, Dict };

  Value() : Value(std::int64_t{0}) {}
  Value(std::int64_t v) : type_(Type::Integer), integer_(v) {}  // NOLINT
  Value(std::string v) : type_(Type::String), string_(std::move(v)) {}  // NOLINT
  Value(const char* v) : Value(std::string(v)) {}  // NOLINT
  Value(List v)  // NOLINT(google-explicit-constructor)
      : type_(Type::List), list_(std::make_shared<List>(std::move(v))) {}
  Value(Dict v)  // NOLINT(google-explicit-constructor)
      : type_(Type::Dict), dict_(std::make_shared<Dict>(std::move(v))) {}

  Type type() const noexcept { return type_; }
  bool is_integer() const noexcept { return type_ == Type::Integer; }
  bool is_string() const noexcept { return type_ == Type::String; }
  bool is_list() const noexcept { return type_ == Type::List; }
  bool is_dict() const noexcept { return type_ == Type::Dict; }

  /// Checked accessors; throw Error on type mismatch.
  std::int64_t as_integer() const {
    if (!is_integer()) throw Error("bencode: value is not an integer");
    return integer_;
  }
  const std::string& as_string() const {
    if (!is_string()) throw Error("bencode: value is not a string");
    return string_;
  }
  const List& as_list() const {
    if (!is_list()) throw Error("bencode: value is not a list");
    return *list_;
  }
  const Dict& as_dict() const {
    if (!is_dict()) throw Error("bencode: value is not a dict");
    return *dict_;
  }
  List& as_list() {
    if (!is_list()) throw Error("bencode: value is not a list");
    return *list_;
  }
  Dict& as_dict() {
    if (!is_dict()) throw Error("bencode: value is not a dict");
    return *dict_;
  }

  /// Dictionary lookup returning nullptr when the key is absent.
  const Value* find(std::string_view key) const {
    if (!is_dict()) return nullptr;
    const auto it = dict_->find(std::string(key));
    return it == dict_->end() ? nullptr : &it->second;
  }
  /// Dictionary lookup that throws when the key is absent.
  const Value& at(std::string_view key) const {
    const Value* v = find(key);
    if (v == nullptr) throw Error("bencode: missing key '" + std::string(key) + "'");
    return *v;
  }

  std::optional<std::int64_t> find_integer(std::string_view key) const {
    const Value* v = find(key);
    if (v == nullptr || !v->is_integer()) return std::nullopt;
    return v->as_integer();
  }
  std::optional<std::string> find_string(std::string_view key) const {
    const Value* v = find(key);
    if (v == nullptr || !v->is_string()) return std::nullopt;
    return v->as_string();
  }

  friend bool operator==(const Value& a, const Value& b) {
    if (a.type_ != b.type_) return false;
    switch (a.type_) {
      case Type::Integer:
        return a.integer_ == b.integer_;
      case Type::String:
        return a.string_ == b.string_;
      case Type::List:
        return *a.list_ == *b.list_;
      case Type::Dict:
        return *a.dict_ == *b.dict_;
    }
    return false;
  }

 private:
  Type type_;
  std::int64_t integer_ = 0;
  std::string string_;
  // Indirection keeps Value small and breaks the recursive type.
  std::shared_ptr<List> list_;
  std::shared_ptr<Dict> dict_;
};

namespace tree_detail {

inline void encode_into(const Value& v, std::string& out) {
  switch (v.type()) {
    case Value::Type::Integer:
      out += 'i';
      out += std::to_string(v.as_integer());
      out += 'e';
      break;
    case Value::Type::String: {
      const std::string& s = v.as_string();
      out += std::to_string(s.size());
      out += ':';
      out += s;
      break;
    }
    case Value::Type::List:
      out += 'l';
      for (const Value& item : v.as_list()) encode_into(item, out);
      out += 'e';
      break;
    case Value::Type::Dict:
      out += 'd';
      for (const auto& [key, val] : v.as_dict()) {
        out += std::to_string(key.size());
        out += ':';
        out += key;
        encode_into(val, out);
      }
      out += 'e';
      break;
  }
}

/// One Value per Reader step, so the tree accepts exactly what the Reader
/// does.
inline Value read_value(Reader& r) {
  switch (r.peek()) {
    case Reader::Type::Integer: {
      std::int64_t v = 0;
      if (r.integer(v)) return Value(v);
      break;
    }
    case Reader::Type::String: {
      std::string_view s;
      if (r.string(s)) return Value(std::string(s));
      break;
    }
    case Reader::Type::List: {
      if (!r.enter_list()) break;
      List list;
      while (r.next_item()) list.push_back(read_value(r));
      if (r.ok()) return Value(std::move(list));
      break;
    }
    case Reader::Type::Dict: {
      if (!r.enter_dict()) break;
      Dict dict;
      std::string_view key;
      while (r.next_key(key)) {
        Value value = read_value(r);
        // The Reader has checked that keys ascend, so each one goes last.
        dict.emplace_hint(dict.end(), std::string(key), std::move(value));
      }
      if (r.ok()) return Value(std::move(dict));
      break;
    }
    case Reader::Type::End:
    case Reader::Type::Invalid:
      r.skip();  // not a value: records why
      break;
  }
  throw Error(r.error());
}

}  // namespace tree_detail

/// Serialises a value to its canonical bencoding.
inline std::string encode(const Value& v) {
  std::string out;
  tree_detail::encode_into(v, out);
  return out;
}

/// Parses exactly one value; throws Error on malformed input or trailing
/// garbage (the Reader's rules).
inline Value decode(std::string_view data) {
  Reader r(data);
  Value v = tree_detail::read_value(r);
  if (!r.finish()) throw Error(r.error());
  return v;
}

}  // namespace btpub::bencode
