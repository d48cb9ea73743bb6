#include "codar/common/json.hpp"

#include <cctype>
#include <charconv>
#include <cstdint>
#include <cstdio>

namespace codar::common {

namespace {

[[noreturn]] void fail(std::size_t pos, const std::string& what) {
  throw JsonError("JSON error at byte " + std::to_string(pos) + ": " + what);
}

/// Appends one Unicode code point as UTF-8.
void append_utf8(std::string& out, std::uint32_t cp) {
  if (cp < 0x80) {
    out.push_back(static_cast<char>(cp));
  } else if (cp < 0x800) {
    out.push_back(static_cast<char>(0xC0 | (cp >> 6)));
    out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
  } else if (cp < 0x10000) {
    out.push_back(static_cast<char>(0xE0 | (cp >> 12)));
    out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
    out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
  } else {
    out.push_back(static_cast<char>(0xF0 | (cp >> 18)));
    out.push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
    out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
    out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
  }
}

}  // namespace

/// Single-pass recursive-descent parser over a string_view.
class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  Json parse_document() {
    Json v = parse_value(0);
    skip_ws();
    if (pos_ != text_.size()) fail(pos_, "trailing characters after value");
    return v;
  }

 private:
  // Deep enough for any sane request, shallow enough that a hostile line
  // of ten thousand '[' cannot overflow the native stack.
  static constexpr int kMaxDepth = 64;

  std::string_view text_;
  std::size_t pos_ = 0;

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\n' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail(pos_, "unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) {
      fail(pos_, std::string("expected '") + c + "'");
    }
    ++pos_;
  }

  bool consume_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  Json parse_value(int depth) {
    if (depth > kMaxDepth) fail(pos_, "nesting too deep");
    skip_ws();
    const char c = peek();
    Json v;
    switch (c) {
      case '{': return parse_object(depth);
      case '[': return parse_array(depth);
      case '"':
        v.kind_ = Json::Kind::kString;
        v.string_ = parse_string();
        return v;
      case 't':
        if (!consume_literal("true")) fail(pos_, "invalid literal");
        v.kind_ = Json::Kind::kBool;
        v.bool_ = true;
        return v;
      case 'f':
        if (!consume_literal("false")) fail(pos_, "invalid literal");
        v.kind_ = Json::Kind::kBool;
        v.bool_ = false;
        return v;
      case 'n':
        if (!consume_literal("null")) fail(pos_, "invalid literal");
        v.kind_ = Json::Kind::kNull;
        return v;
      default: return parse_number();
    }
  }

  Json parse_object(int depth) {
    Json v;
    v.kind_ = Json::Kind::kObject;
    expect('{');
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    for (;;) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      v.members_.emplace_back(std::move(key), parse_value(depth + 1));
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return v;
    }
  }

  Json parse_array(int depth) {
    Json v;
    v.kind_ = Json::Kind::kArray;
    expect('[');
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    for (;;) {
      v.items_.push_back(parse_value(depth + 1));
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return v;
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    for (;;) {
      if (pos_ >= text_.size()) fail(pos_, "unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) {
        fail(pos_ - 1, "unescaped control character in string");
      }
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) fail(pos_, "unterminated escape");
      const char e = text_[pos_++];
      switch (e) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          std::uint32_t cp = parse_hex4();
          if (cp >= 0xD800 && cp <= 0xDBFF) {
            // High surrogate: must be followed by \uDC00..\uDFFF.
            if (pos_ + 1 >= text_.size() || text_[pos_] != '\\' ||
                text_[pos_ + 1] != 'u') {
              fail(pos_, "unpaired surrogate");
            }
            pos_ += 2;
            const std::uint32_t lo = parse_hex4();
            if (lo < 0xDC00 || lo > 0xDFFF) fail(pos_, "invalid low surrogate");
            cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
          } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
            fail(pos_, "unpaired surrogate");
          }
          append_utf8(out, cp);
          break;
        }
        default: fail(pos_ - 1, "invalid escape");
      }
    }
  }

  std::uint32_t parse_hex4() {
    if (pos_ + 4 > text_.size()) fail(pos_, "truncated \\u escape");
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = text_[pos_++];
      v <<= 4;
      if (c >= '0' && c <= '9') {
        v |= static_cast<std::uint32_t>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        v |= static_cast<std::uint32_t>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        v |= static_cast<std::uint32_t>(c - 'A' + 10);
      } else {
        fail(pos_ - 1, "invalid hex digit in \\u escape");
      }
    }
    return v;
  }

  Json parse_number() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    auto digits = [&]() {
      const std::size_t before = pos_;
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
      }
      return pos_ > before;
    };
    const std::size_t int_start = pos_;
    if (!digits()) fail(pos_, "invalid number");
    // RFC 8259: the integer part is "0" or starts with 1-9. Ids echo back
    // verbatim, so a token like 007 would make the *response* invalid JSON.
    if (pos_ - int_start > 1 && text_[int_start] == '0') {
      fail(int_start, "leading zeros in number");
    }
    if (pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      if (!digits()) fail(pos_, "invalid number");
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) {
        ++pos_;
      }
      if (!digits()) fail(pos_, "invalid number");
    }
    Json v;
    v.kind_ = Json::Kind::kNumber;
    v.string_ = std::string(text_.substr(start, pos_ - start));
    const auto [ptr, ec] = std::from_chars(
        v.string_.data(), v.string_.data() + v.string_.size(), v.number_);
    if (ec != std::errc() || ptr != v.string_.data() + v.string_.size()) {
      fail(start, "unrepresentable number");
    }
    return v;
  }
};

Json Json::parse(std::string_view text) {
  return JsonParser(text).parse_document();
}

bool Json::as_bool() const {
  if (kind_ != Kind::kBool) throw JsonError("expected a boolean");
  return bool_;
}

double Json::as_number() const {
  if (kind_ != Kind::kNumber) throw JsonError("expected a number");
  return number_;
}

const std::string& Json::as_string() const {
  if (kind_ != Kind::kString) throw JsonError("expected a string");
  return string_;
}

const std::vector<Json>& Json::items() const {
  if (kind_ != Kind::kArray) throw JsonError("expected an array");
  return items_;
}

const std::vector<std::pair<std::string, Json>>& Json::members() const {
  if (kind_ != Kind::kObject) throw JsonError("expected an object");
  return members_;
}

const std::string& Json::raw_number() const {
  if (kind_ != Kind::kNumber) throw JsonError("expected a number");
  return string_;
}

const Json* Json::find(std::string_view key) const {
  if (kind_ != Kind::kObject) return nullptr;
  for (const auto& [k, v] : members_) {
    if (k == key) return &v;
  }
  return nullptr;
}

std::string json_number(double v) {
  char buf[64];  // the longest shortest form of a double is 24 characters
  return std::string(buf, std::to_chars(buf, buf + sizeof(buf), v).ptr);
}

std::string json_quote(std::string_view s) {
  // One escaper for the whole binary: the report renderer
  // (pipeline::to_json) uses it too, so response envelopes and the
  // embedded "result" objects can never diverge on how the same byte
  // renders.
  std::string out;
  out.reserve(s.size() + 2);
  out.push_back('"');
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
  return out;
}

}  // namespace codar::common
