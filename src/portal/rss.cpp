#include "portal/rss.hpp"

#include <cctype>
#include <charconv>
#include <sstream>
#include <stdexcept>

#include "util/strings.hpp"

namespace btpub {

std::string xml_escape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (char c : text) {
    switch (c) {
      case '&':
        out += "&amp;";
        break;
      case '<':
        out += "&lt;";
        break;
      case '>':
        out += "&gt;";
        break;
      case '"':
        out += "&quot;";
        break;
      case '\'':
        out += "&apos;";
        break;
      default:
        out.push_back(c);
    }
  }
  return out;
}

std::string xml_unescape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  std::size_t i = 0;
  while (i < text.size()) {
    if (text[i] != '&') {
      out.push_back(text[i++]);
      continue;
    }
    const std::size_t end = text.find(';', i);
    if (end == std::string_view::npos) {
      throw std::invalid_argument("xml: unterminated entity");
    }
    const std::string_view entity = text.substr(i + 1, end - i - 1);
    if (entity == "amp") {
      out.push_back('&');
    } else if (entity == "lt") {
      out.push_back('<');
    } else if (entity == "gt") {
      out.push_back('>');
    } else if (entity == "quot") {
      out.push_back('"');
    } else if (entity == "apos") {
      out.push_back('\'');
    } else if (!entity.empty() && entity[0] == '#') {
      unsigned code = 0;
      const bool hex = entity.size() > 1 && (entity[1] == 'x' || entity[1] == 'X');
      const std::string_view digits = entity.substr(hex ? 2 : 1);
      const auto result = std::from_chars(digits.data(), digits.data() + digits.size(),
                                          code, hex ? 16 : 10);
      if (result.ec != std::errc{} || result.ptr != digits.data() + digits.size() ||
          code == 0 || code > 0x10FFFF) {
        throw std::invalid_argument("xml: bad character reference");
      }
      // ASCII is all the feed ever emits; encode higher points as UTF-8.
      if (code < 0x80) {
        out.push_back(static_cast<char>(code));
      } else if (code < 0x800) {
        out.push_back(static_cast<char>(0xC0 | (code >> 6)));
        out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
      } else if (code < 0x10000) {
        out.push_back(static_cast<char>(0xE0 | (code >> 12)));
        out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
        out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
      } else {
        out.push_back(static_cast<char>(0xF0 | (code >> 18)));
        out.push_back(static_cast<char>(0x80 | ((code >> 12) & 0x3F)));
        out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
        out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
      }
    } else {
      throw std::invalid_argument("xml: unknown entity '" + std::string(entity) +
                                  "'");
    }
    i = end + 1;
  }
  return out;
}

std::string render_rss(const std::string& portal_name,
                       std::span<const RssItem> items) {
  std::ostringstream out;
  out << "<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n";
  out << "<rss version=\"2.0\" xmlns:btpub=\"urn:btpub:feed\">\n";
  out << "<channel>\n";
  out << "<title>" << xml_escape(portal_name) << "</title>\n";
  out << "<description>" << xml_escape(portal_name)
      << " - new torrents</description>\n";
  for (const RssItem& item : items) {
    out << "<item>\n";
    out << "  <title>" << xml_escape(item.title) << "</title>\n";
    out << "  <guid>" << item.id << "</guid>\n";
    out << "  <category>" << xml_escape(std::string(to_string(item.category)))
        << "</category>\n";
    out << "  <btpub:user>" << xml_escape(item.username) << "</btpub:user>\n";
    out << "  <btpub:size>" << item.size_bytes << "</btpub:size>\n";
    out << "  <pubDate>" << item.published_at << "</pubDate>\n";
    out << "</item>\n";
  }
  out << "</channel>\n";
  out << "</rss>\n";
  return out.str();
}

namespace {

/// Minimal strict parser for the XML subset render_rss emits.
class XmlCursor {
 public:
  explicit XmlCursor(std::string_view text) : text_(text) {}

  /// Skips whitespace, comments, the declaration.
  void skip_misc() {
    while (true) {
      while (pos_ < text_.size() &&
             std::isspace(static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
      }
      if (match("<?")) {
        const std::size_t end = text_.find("?>", pos_);
        if (end == std::string_view::npos) {
          throw std::invalid_argument("xml: unterminated declaration");
        }
        pos_ = end + 2;
        continue;
      }
      if (match("<!--")) {
        const std::size_t end = text_.find("-->", pos_);
        if (end == std::string_view::npos) {
          throw std::invalid_argument("xml: unterminated comment");
        }
        pos_ = end + 3;
        continue;
      }
      return;
    }
  }

  /// If the next construct is an opening tag, consumes it and returns its
  /// name (attributes are skipped); otherwise returns nullopt.
  std::optional<std::string> open_tag() {
    skip_misc();
    const std::size_t save = pos_;
    if (pos_ >= text_.size() || text_[pos_] != '<' || peek(1) == '/') {
      return std::nullopt;
    }
    ++pos_;
    std::string name = read_name();
    // Skip attributes.
    const std::size_t end = text_.find('>', pos_);
    if (end == std::string_view::npos) {
      pos_ = save;
      throw std::invalid_argument("xml: unterminated tag");
    }
    if (end > 0 && text_[end - 1] == '/') {
      pos_ = save;
      throw std::invalid_argument("xml: unexpected self-closing tag");
    }
    pos_ = end + 1;
    return name;
  }

  /// Consumes a closing tag; throws if it does not match `name`.
  void close_tag(const std::string& name) {
    skip_misc();
    if (!match("</")) throw std::invalid_argument("xml: expected </" + name + ">");
    const std::string got = read_name();
    if (got != name) {
      throw std::invalid_argument("xml: mismatched close tag " + got +
                                  " (expected " + name + ")");
    }
    skip_ws();
    if (pos_ >= text_.size() || text_[pos_] != '>') {
      throw std::invalid_argument("xml: malformed close tag");
    }
    ++pos_;
  }

  /// Reads character data up to the next '<' and unescapes it.
  std::string text_content() {
    const std::size_t end = text_.find('<', pos_);
    if (end == std::string_view::npos) {
      throw std::invalid_argument("xml: unterminated text");
    }
    const std::string_view raw = text_.substr(pos_, end - pos_);
    pos_ = end;
    return xml_unescape(trim(raw));
  }

  /// True when positioned at the closing tag of `name`.
  bool at_close(const std::string& name) {
    skip_misc();
    return text_.substr(pos_).starts_with("</" + name);
  }

  bool done() {
    skip_misc();
    return pos_ >= text_.size();
  }

 private:
  char peek(std::size_t offset) const {
    return pos_ + offset < text_.size() ? text_[pos_ + offset] : '\0';
  }
  bool match(std::string_view prefix) {
    if (text_.substr(pos_).starts_with(prefix)) {
      pos_ += prefix.size();
      return true;
    }
    return false;
  }
  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }
  std::string read_name() {
    const std::size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isalnum(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == ':' || text_[pos_] == '-' || text_[pos_] == '_')) {
      ++pos_;
    }
    if (pos_ == start) throw std::invalid_argument("xml: expected a name");
    return std::string(text_.substr(start, pos_ - start));
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

ContentCategory category_from_label(std::string_view label) {
  for (const ContentCategory c : kAllCategories) {
    if (to_string(c) == label) return c;
  }
  return ContentCategory::Other;
}

template <typename T>
T parse_number(const std::string& text, const char* what) {
  T value{};
  const auto result = std::from_chars(text.data(), text.data() + text.size(), value);
  if (result.ec != std::errc{} || result.ptr != text.data() + text.size()) {
    throw std::invalid_argument(std::string("rss: bad number in ") + what);
  }
  return value;
}

}  // namespace

RssDocument parse_rss(std::string_view xml) {
  XmlCursor cursor(xml);
  auto expect = [&cursor](const char* name) {
    const auto tag = cursor.open_tag();
    if (!tag || *tag != name) {
      throw std::invalid_argument(std::string("rss: expected <") + name + ">");
    }
  };
  expect("rss");
  expect("channel");

  RssDocument doc;
  expect("title");
  doc.channel_title = cursor.text_content();
  cursor.close_tag("title");
  expect("description");
  cursor.text_content();
  cursor.close_tag("description");

  while (!cursor.at_close("channel")) {
    expect("item");
    RssItem item;
    bool have_title = false, have_guid = false;
    while (!cursor.at_close("item")) {
      const auto tag = cursor.open_tag();
      if (!tag) throw std::invalid_argument("rss: stray content in <item>");
      const std::string value = cursor.text_content();
      cursor.close_tag(*tag);
      if (*tag == "title") {
        item.title = value;
        have_title = true;
      } else if (*tag == "guid") {
        item.id = parse_number<TorrentId>(value, "guid");
        have_guid = true;
      } else if (*tag == "category") {
        item.category = category_from_label(value);
      } else if (*tag == "btpub:user") {
        item.username = value;
      } else if (*tag == "btpub:size") {
        item.size_bytes = parse_number<std::int64_t>(value, "size");
      } else if (*tag == "pubDate") {
        item.published_at = parse_number<SimTime>(value, "pubDate");
      }
      // Unknown elements are tolerated (skipped) for feed compatibility.
    }
    cursor.close_tag("item");
    if (!have_title || !have_guid) {
      throw std::invalid_argument("rss: item missing title or guid");
    }
    doc.items.push_back(std::move(item));
  }
  cursor.close_tag("channel");
  cursor.close_tag("rss");
  if (!cursor.done()) throw std::invalid_argument("rss: trailing content");
  return doc;
}

}  // namespace btpub
