#include "codar/qasm/lexer.hpp"

#include <charconv>
#include <cstdint>
#include <cstdlib>
#include <system_error>

namespace codar::qasm {

QasmError::QasmError(const std::string& message, int line, int column)
    : std::runtime_error("qasm:" + std::to_string(line) + ":" +
                         std::to_string(column) + ": " + message),
      line_(line),
      column_(column) {}

namespace {

// ASCII classes, as <cctype> gives them in the "C" locale.
bool is_alpha(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z');
}
bool is_digit(char c) { return c >= '0' && c <= '9'; }
bool is_ident_start(char c) { return is_alpha(c) || c == '_'; }
bool is_ident_char(char c) { return is_ident_start(c) || is_digit(c); }

/// The value of a numeric lexeme. from_chars gives strtod's value and
/// length on every lexeme it converts; a lexeme it does not consume in
/// full (`1.2.3`, `1e`, `1e+`) is an error. Out of range, from_chars
/// leaves the value unset where strtod returns inf (overflow) or 0 or a
/// subnormal (underflow), so that rare case takes strtod's value.
double number_value(std::string_view text, bool digits_only, int line,
                    int column) {
  // Register sizes and indices are short digit strings: exact integers
  // below 2^53, whose value needs no decimal conversion.
  if (digits_only && text.size() <= 15) {
    std::int64_t integer = 0;
    for (const char c : text) integer = integer * 10 + (c - '0');
    return static_cast<double>(integer);
  }
  double value = 0.0;
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (ptr != text.data() + text.size()) {
    throw QasmError("malformed number '" + std::string(text) + "'", line,
                    column);
  }
  if (ec == std::errc::result_out_of_range) {
    value = std::strtod(std::string(text).c_str(), nullptr);
  }
  return value;
}

}  // namespace

Token Lexer::next() {
  const std::size_t n = source_.size();
  while (pos_ < n) {
    const char c = source_[pos_];
    if (c == '\n') {
      ++line_;
      line_start_ = ++pos_;
    } else if (c == ' ' || c == '\t' || c == '\r') {
      ++pos_;
    } else if (c == '/' && pos_ + 1 < n && source_[pos_ + 1] == '/') {
      while (pos_ < n && source_[pos_] != '\n') ++pos_;
    } else {
      break;
    }
  }

  Token tok;
  tok.line = line_;
  tok.column = static_cast<int>(pos_ - line_start_ + 1);
  if (pos_ == n) return tok;  // kEof
  const std::size_t start = pos_;
  const char c = source_[pos_];
  std::size_t length = 1;
  switch (c) {
    case '(': tok.kind = TokenKind::kLParen; break;
    case ')': tok.kind = TokenKind::kRParen; break;
    case '[': tok.kind = TokenKind::kLBracket; break;
    case ']': tok.kind = TokenKind::kRBracket; break;
    case '{': tok.kind = TokenKind::kLBrace; break;
    case '}': tok.kind = TokenKind::kRBrace; break;
    case ';': tok.kind = TokenKind::kSemicolon; break;
    case ',': tok.kind = TokenKind::kComma; break;
    case '+': tok.kind = TokenKind::kPlus; break;
    case '*': tok.kind = TokenKind::kStar; break;
    case '/': tok.kind = TokenKind::kSlash; break;
    case '^': tok.kind = TokenKind::kCaret; break;
    case '-':
      if (pos_ + 1 < n && source_[pos_ + 1] == '>') {
        tok.kind = TokenKind::kArrow;
        length = 2;
      } else {
        tok.kind = TokenKind::kMinus;
      }
      break;
    case '=':
      if (pos_ + 1 < n && source_[pos_ + 1] == '=') {
        tok.kind = TokenKind::kEqualEqual;
        length = 2;
        break;
      }
      throw QasmError("unexpected character '='", tok.line, tok.column);
    case '"': {
      ++pos_;
      const std::size_t body = pos_;
      while (pos_ < n && source_[pos_] != '"') {
        if (source_[pos_] == '\n') {
          ++line_;
          line_start_ = pos_ + 1;
        }
        ++pos_;
      }
      if (pos_ == n)
        throw QasmError("unterminated string", tok.line, tok.column);
      tok.kind = TokenKind::kString;
      tok.text = source_.substr(body, pos_ - body);
      ++pos_;  // closing quote
      return tok;
    }
    default:
      if (is_ident_start(c)) {
        while (pos_ < n && is_ident_char(source_[pos_])) ++pos_;
        tok.kind = TokenKind::kIdentifier;
        tok.text = source_.substr(start, pos_ - start);
        return tok;
      }
      if (is_digit(c) ||
          (c == '.' && pos_ + 1 < n && is_digit(source_[pos_ + 1]))) {
        bool digits_only = true;
        while (pos_ < n) {
          const char d = source_[pos_];
          if (!is_digit(d)) {
            const bool exponent_sign =
                (d == '+' || d == '-') && pos_ > start &&
                (source_[pos_ - 1] == 'e' || source_[pos_ - 1] == 'E');
            if (d != '.' && d != 'e' && d != 'E' && !exponent_sign) break;
            digits_only = false;
          }
          ++pos_;
        }
        tok.kind = TokenKind::kNumber;
        tok.text = source_.substr(start, pos_ - start);
        tok.number =
            number_value(tok.text, digits_only, tok.line, tok.column);
        return tok;
      }
      throw QasmError(std::string("unexpected character '") + c + "'",
                      tok.line, tok.column);
  }
  tok.text = source_.substr(start, length);
  pos_ += length;
  return tok;
}

}  // namespace codar::qasm
