#include "codar/qasm/lexer.hpp"

#include <gtest/gtest.h>

#include <string_view>
#include <vector>

namespace codar::qasm {
namespace {

/// Pulls every token of `source`, the final kEof included. The texts view
/// `source`, so it must outlive the result.
std::vector<Token> pull_all(std::string_view source) {
  Lexer lexer(source);
  std::vector<Token> tokens;
  do {
    tokens.push_back(lexer.next());
  } while (tokens.back().kind != TokenKind::kEof);
  return tokens;
}

TEST(Lexer, TokenizesSimpleStatement) {
  const auto tokens = pull_all("cx q[0],q[1];");
  ASSERT_EQ(tokens.size(), 12u);  // cx q [ 0 ] , q [ 1 ] ; eof
  EXPECT_EQ(tokens[0].kind, TokenKind::kIdentifier);
  EXPECT_EQ(tokens[0].text, "cx");
  EXPECT_EQ(tokens[1].text, "q");
  EXPECT_EQ(tokens[2].kind, TokenKind::kLBracket);
  EXPECT_EQ(tokens[3].kind, TokenKind::kNumber);
  EXPECT_DOUBLE_EQ(tokens[3].number, 0.0);
}

TEST(Lexer, TokenCountsAndEof) {
  const auto tokens = pull_all("h q;");
  // h, q, ;, eof
  ASSERT_EQ(tokens.size(), 4u);
  EXPECT_EQ(tokens.back().kind, TokenKind::kEof);
}

TEST(Lexer, SkipsCommentsAndWhitespace) {
  const auto tokens = pull_all("// comment line\n  h   q ; // trailing\n");
  ASSERT_EQ(tokens.size(), 4u);
  EXPECT_EQ(tokens[0].text, "h");
}

TEST(Lexer, RealNumbersWithExponents) {
  const auto tokens = pull_all("rz(1.5e-2)");
  EXPECT_DOUBLE_EQ(tokens[2].number, 0.015);
  const auto tokens2 = pull_all(".25");
  EXPECT_DOUBLE_EQ(tokens2[0].number, 0.25);
}

TEST(Lexer, ArrowAndOperators) {
  const auto tokens = pull_all("a -> b + c - d * e / f ^ g");
  EXPECT_EQ(tokens[1].kind, TokenKind::kArrow);
  EXPECT_EQ(tokens[3].kind, TokenKind::kPlus);
  EXPECT_EQ(tokens[5].kind, TokenKind::kMinus);
  EXPECT_EQ(tokens[7].kind, TokenKind::kStar);
  EXPECT_EQ(tokens[9].kind, TokenKind::kSlash);
  EXPECT_EQ(tokens[11].kind, TokenKind::kCaret);
}

TEST(Lexer, StringLiteral) {
  const auto tokens = pull_all("include \"qelib1.inc\";");
  EXPECT_EQ(tokens[1].kind, TokenKind::kString);
  EXPECT_EQ(tokens[1].text, "qelib1.inc");
}

TEST(Lexer, TracksLineAndColumn) {
  const auto tokens = pull_all("h q;\ncx q[0],q[1];");
  EXPECT_EQ(tokens[0].line, 1);
  EXPECT_EQ(tokens[0].column, 1);
  EXPECT_EQ(tokens[3].text, "cx");
  EXPECT_EQ(tokens[3].line, 2);
  EXPECT_EQ(tokens[3].column, 1);
}

TEST(Lexer, UnterminatedStringThrows) {
  EXPECT_THROW(pull_all("include \"oops"), QasmError);
}

TEST(Lexer, UnexpectedCharacterThrows) {
  try {
    pull_all("h q; @");
    FAIL() << "expected QasmError";
  } catch (const QasmError& e) {
    EXPECT_EQ(e.line(), 1);
    EXPECT_EQ(e.column(), 6);
  }
}

}  // namespace
}  // namespace codar::qasm
