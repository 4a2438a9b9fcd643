#include "util/strings.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace btpub {

void split_views(std::string_view s, char sep,
                 std::vector<std::string_view>& out) {
  out.clear();
  std::size_t start = 0;
  while (true) {
    const std::size_t pos = s.find(sep, start);
    if (pos == std::string_view::npos) {
      out.push_back(s.substr(start));
      return;
    }
    out.push_back(s.substr(start, pos - start));
    start = pos + 1;
  }
}

std::vector<std::string_view> split_views(std::string_view s, char sep) {
  std::vector<std::string_view> out;
  split_views(s, sep, out);
  return out;
}

std::string to_lower(std::string_view s) {
  std::string out(s);
  std::transform(out.begin(), out.end(), out.begin(),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
  return out;
}

bool starts_with(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

bool ends_with(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() && s.substr(s.size() - suffix.size()) == suffix;
}

std::string_view trim(std::string_view s) {
  std::size_t b = 0;
  std::size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

namespace {

bool is_unreserved(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
         (c >= '0' && c <= '9') || c == '-' || c == '_' || c == '.' || c == '~';
}

int url_hex_value(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

}  // namespace

std::string url_escape(std::string_view bytes) {
  static constexpr char kHex[] = "0123456789ABCDEF";
  std::string out;
  out.reserve(bytes.size() * 3);
  for (char c : bytes) {
    if (is_unreserved(c)) {
      out.push_back(c);
    } else {
      const auto b = static_cast<unsigned char>(c);
      out.push_back('%');
      out.push_back(kHex[b >> 4]);
      out.push_back(kHex[b & 0xf]);
    }
  }
  return out;
}

std::string url_unescape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (std::size_t i = 0; i < text.size(); ++i) {
    if (text[i] != '%') {
      out.push_back(text[i]);
      continue;
    }
    if (i + 2 >= text.size()) throw std::invalid_argument("url: truncated escape");
    const int hi = url_hex_value(text[i + 1]);
    const int lo = url_hex_value(text[i + 2]);
    if (hi < 0 || lo < 0) throw std::invalid_argument("url: bad escape");
    out.push_back(static_cast<char>((hi << 4) | lo));
    i += 2;
  }
  return out;
}

std::optional<std::size_t> url_unescape_into(std::string_view text, char* out,
                                             std::size_t capacity) {
  std::size_t n = 0;
  for (std::size_t i = 0; i < text.size(); ++i) {
    char decoded;
    if (text[i] != '%') {
      decoded = text[i];
    } else {
      if (i + 2 >= text.size()) return std::nullopt;
      const int hi = url_hex_value(text[i + 1]);
      const int lo = url_hex_value(text[i + 2]);
      if (hi < 0 || lo < 0) return std::nullopt;
      decoded = static_cast<char>((hi << 4) | lo);
      i += 2;
    }
    if (n >= capacity) return std::nullopt;
    out[n++] = decoded;
  }
  return n;
}

std::optional<std::uint64_t> parse_uint(std::string_view text,
                                        std::uint64_t max) {
  std::uint64_t value = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (text.empty() || ec != std::errc() || ptr != end || value > max) {
    return std::nullopt;
  }
  return value;
}

std::optional<double> parse_double(std::string_view text) {
  double value = 0.0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (text.empty() || ec != std::errc() || ptr != end || !std::isfinite(value) ||
      std::signbit(value)) {
    return std::nullopt;
  }
  return value;
}

std::string format_double(double v, int decimals) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", decimals, v);
  return buf;
}

std::string humanize(double v) {
  const double a = std::fabs(v);
  char buf[64];
  if (a >= 1e9) {
    std::snprintf(buf, sizeof buf, "%.2gB", v / 1e9);
  } else if (a >= 1e6) {
    std::snprintf(buf, sizeof buf, "%.3gM", v / 1e6);
  } else if (a >= 1e3) {
    std::snprintf(buf, sizeof buf, "%.3gK", v / 1e3);
  } else {
    std::snprintf(buf, sizeof buf, "%.3g", v);
  }
  return buf;
}

std::string csv_escape(std::string_view field) {
  if (field.find_first_of(",\"\n\r") == std::string_view::npos) {
    return std::string(field);
  }
  std::string out = "\"";
  for (const char c : field) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}

std::string percent(double fraction, int decimals) {
  return format_double(fraction * 100.0, decimals) + "%";
}

}  // namespace btpub
