#pragma once

// Pull lexer for the OpenQASM 2.0 subset the parser accepts. It hands out
// one token per next() call, with line/column positions for diagnostics.
// Token text is a view into the source (which must outlive the tokens),
// and number tokens carry their value, converted in place (DESIGN.md §15).

#include <cstddef>
#include <stdexcept>
#include <string>
#include <string_view>

namespace codar::qasm {

enum class TokenKind {
  kIdentifier,   // h, cx, q, myreg, pi is lexed as identifier
  kNumber,       // integer or real literal, value in Token::number
  kString,       // "qelib1.inc"
  kLParen,       // (
  kRParen,       // )
  kLBracket,     // [
  kRBracket,     // ]
  kLBrace,       // {
  kRBrace,       // }
  kSemicolon,    // ;
  kComma,        // ,
  kArrow,        // ->
  kPlus,
  kMinus,
  kStar,
  kSlash,
  kCaret,        // ^ (power)
  kEqualEqual,   // ==
  kEof,
};

struct Token {
  TokenKind kind = TokenKind::kEof;
  /// Raw spelling (identifier name / string contents), a view into the
  /// source; empty for kEof.
  std::string_view text;
  double number = 0;  ///< Value for kNumber tokens.
  int line = 0;
  int column = 0;
};

/// Thrown on any lexical or syntactic error; carries a positioned message.
class QasmError : public std::runtime_error {
 public:
  QasmError(const std::string& message, int line, int column);
  int line() const { return line_; }
  int column() const { return column_; }

 private:
  int line_;
  int column_;
};

/// Splits a source into tokens on demand. Comments (// ...) and
/// whitespace are skipped; at the end of the source every call returns a
/// kEof token positioned just past the last character.
class Lexer {
 public:
  explicit Lexer(std::string_view source) : source_(source) {}

  /// The next token. Throws QasmError on an unrecognized character, an
  /// unterminated string, or a numeric lexeme that does not convert in
  /// full (`1.2.3`, `1e`, `1e+`).
  Token next();

 private:
  std::string_view source_;
  std::size_t pos_ = 0;
  std::size_t line_start_ = 0;  ///< Offset of the current line's first byte.
  int line_ = 1;
};

}  // namespace codar::qasm
