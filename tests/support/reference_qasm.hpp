#pragma once

// The two-step OpenQASM reader and the iostream writer that the qasm
// module shipped before its single-pass rewrite, preserved verbatim as
// the oracle of tests/qasm/qasm_differential_test.cpp and
// tests/qasm/qasm_fuzz_test.cpp. This is the original lexer (the whole
// source tokenized into a vector of owning Tokens, numbers through
// strtod), recursive-descent parser (shared_ptr expression trees,
// std::map builtin and register tables) and ostringstream writer at
// precision 17. Only the namespace is renamed, and the out-of-line
// definitions are marked inline so the file can be a header. It accepts
// `1.2.3`, non-finite parameters and unbounded gate expansion, which the
// production reader rejects; the tests account for exactly those cases.

#include <cctype>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iomanip>
#include <map>
#include <memory>
#include <numbers>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "codar/ir/circuit.hpp"

namespace codar::testing::reference_qasm {

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
  TokenKind kind;
  std::string text;   ///< Raw spelling (identifier name / string contents).
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

/// Tokenizes the whole source. Comments (// ...) and whitespace are
/// skipped. Throws QasmError on an unrecognized character.
std::vector<Token> tokenize(std::string_view source);

}  // namespace codar::testing::reference_qasm

namespace codar::testing::reference_qasm {

inline QasmError::QasmError(const std::string& message, int line, int column)
    : std::runtime_error("qasm:" + std::to_string(line) + ":" +
                         std::to_string(column) + ": " + message),
      line_(line),
      column_(column) {}

namespace {

bool is_ident_start(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) != 0 || c == '_';
}
bool is_ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}
bool is_digit(char c) {
  return std::isdigit(static_cast<unsigned char>(c)) != 0;
}

}  // namespace

inline std::vector<Token> tokenize(std::string_view source) {
  std::vector<Token> tokens;
  std::size_t i = 0;
  int line = 1;
  int col = 1;

  auto advance = [&](std::size_t n = 1) {
    for (std::size_t k = 0; k < n && i < source.size(); ++k) {
      if (source[i] == '\n') {
        ++line;
        col = 1;
      } else {
        ++col;
      }
      ++i;
    }
  };
  auto push = [&](TokenKind kind, std::string text, int at_line, int at_col,
                  double number = 0.0) {
    tokens.push_back(Token{kind, std::move(text), number, at_line, at_col});
  };

  while (i < source.size()) {
    const char c = source[i];
    const int tl = line, tc = col;
    if (c == ' ' || c == '\t' || c == '\r' || c == '\n') {
      advance();
      continue;
    }
    if (c == '/' && i + 1 < source.size() && source[i + 1] == '/') {
      while (i < source.size() && source[i] != '\n') advance();
      continue;
    }
    if (is_ident_start(c)) {
      std::size_t start = i;
      while (i < source.size() && is_ident_char(source[i])) advance();
      push(TokenKind::kIdentifier,
           std::string(source.substr(start, i - start)), tl, tc);
      continue;
    }
    if (is_digit(c) || (c == '.' && i + 1 < source.size() &&
                        is_digit(source[i + 1]))) {
      std::size_t start = i;
      while (i < source.size() &&
             (is_digit(source[i]) || source[i] == '.' || source[i] == 'e' ||
              source[i] == 'E' ||
              ((source[i] == '+' || source[i] == '-') && i > start &&
               (source[i - 1] == 'e' || source[i - 1] == 'E')))) {
        advance();
      }
      const std::string text(source.substr(start, i - start));
      push(TokenKind::kNumber, text, tl, tc, std::strtod(text.c_str(), nullptr));
      continue;
    }
    if (c == '"') {
      advance();
      std::size_t start = i;
      while (i < source.size() && source[i] != '"') advance();
      if (i >= source.size()) throw QasmError("unterminated string", tl, tc);
      push(TokenKind::kString, std::string(source.substr(start, i - start)),
           tl, tc);
      advance();  // closing quote
      continue;
    }
    if (c == '-' && i + 1 < source.size() && source[i + 1] == '>') {
      push(TokenKind::kArrow, "->", tl, tc);
      advance(2);
      continue;
    }
    if (c == '=' && i + 1 < source.size() && source[i + 1] == '=') {
      push(TokenKind::kEqualEqual, "==", tl, tc);
      advance(2);
      continue;
    }
    TokenKind kind;
    switch (c) {
      case '(': kind = TokenKind::kLParen; break;
      case ')': kind = TokenKind::kRParen; break;
      case '[': kind = TokenKind::kLBracket; break;
      case ']': kind = TokenKind::kRBracket; break;
      case '{': kind = TokenKind::kLBrace; break;
      case '}': kind = TokenKind::kRBrace; break;
      case ';': kind = TokenKind::kSemicolon; break;
      case ',': kind = TokenKind::kComma; break;
      case '+': kind = TokenKind::kPlus; break;
      case '-': kind = TokenKind::kMinus; break;
      case '*': kind = TokenKind::kStar; break;
      case '/': kind = TokenKind::kSlash; break;
      case '^': kind = TokenKind::kCaret; break;
      default:
        throw QasmError(std::string("unexpected character '") + c + "'", tl,
                        tc);
    }
    push(kind, std::string(1, c), tl, tc);
    advance();
  }
  push(TokenKind::kEof, "", line, col);
  return tokens;
}

}  // namespace codar::testing::reference_qasm

namespace codar::testing::reference_qasm {

namespace {

using ir::Circuit;
using ir::Gate;
using ir::GateKind;
using ir::Qubit;

// ---------------------------------------------------------------------------
// Expression AST (needed so gate-definition bodies can reference formal
// parameters that are only bound at expansion time).
// ---------------------------------------------------------------------------

struct Expr;
using ExprPtr = std::shared_ptr<const Expr>;

struct Expr {
  enum class Op {
    kNumber,
    kPi,
    kParam,
    kNeg,
    kAdd,
    kSub,
    kMul,
    kDiv,
    kPow,
    kCall
  };
  Op op;
  double number = 0.0;
  std::string name;  // parameter name or function name
  ExprPtr lhs;
  ExprPtr rhs;
};

using ParamEnv = std::map<std::string, double>;

double eval(const Expr& e, const ParamEnv& env, int line, int col) {
  switch (e.op) {
    case Expr::Op::kNumber:
      return e.number;
    case Expr::Op::kPi:
      return std::numbers::pi;
    case Expr::Op::kParam: {
      const auto it = env.find(e.name);
      if (it == env.end())
        throw QasmError("unknown parameter '" + e.name + "'", line, col);
      return it->second;
    }
    case Expr::Op::kNeg:
      return -eval(*e.lhs, env, line, col);
    case Expr::Op::kAdd:
      return eval(*e.lhs, env, line, col) + eval(*e.rhs, env, line, col);
    case Expr::Op::kSub:
      return eval(*e.lhs, env, line, col) - eval(*e.rhs, env, line, col);
    case Expr::Op::kMul:
      return eval(*e.lhs, env, line, col) * eval(*e.rhs, env, line, col);
    case Expr::Op::kDiv:
      return eval(*e.lhs, env, line, col) / eval(*e.rhs, env, line, col);
    case Expr::Op::kPow:
      return std::pow(eval(*e.lhs, env, line, col),
                      eval(*e.rhs, env, line, col));
    case Expr::Op::kCall: {
      const double v = eval(*e.lhs, env, line, col);
      if (e.name == "sin") return std::sin(v);
      if (e.name == "cos") return std::cos(v);
      if (e.name == "tan") return std::tan(v);
      if (e.name == "exp") return std::exp(v);
      if (e.name == "ln") return std::log(v);
      if (e.name == "sqrt") return std::sqrt(v);
      throw QasmError("unknown function '" + e.name + "'", line, col);
    }
  }
  throw QasmError("bad expression", line, col);
}

// ---------------------------------------------------------------------------
// Builtin gate alphabet (qelib1 subset + QASM builtins U / CX).
// ---------------------------------------------------------------------------

struct Builtin {
  GateKind kind;
  int num_qubits;
  int num_params;
};

const std::map<std::string, Builtin>& builtin_table() {
  static const std::map<std::string, Builtin> table = {
      {"id", {GateKind::kI, 1, 0}},      {"x", {GateKind::kX, 1, 0}},
      {"y", {GateKind::kY, 1, 0}},       {"z", {GateKind::kZ, 1, 0}},
      {"h", {GateKind::kH, 1, 0}},       {"s", {GateKind::kS, 1, 0}},
      {"sdg", {GateKind::kSdg, 1, 0}},   {"t", {GateKind::kT, 1, 0}},
      {"tdg", {GateKind::kTdg, 1, 0}},   {"sx", {GateKind::kSX, 1, 0}},
      {"rx", {GateKind::kRX, 1, 1}},     {"ry", {GateKind::kRY, 1, 1}},
      {"rz", {GateKind::kRZ, 1, 1}},     {"u1", {GateKind::kU1, 1, 1}},
      {"p", {GateKind::kU1, 1, 1}},      {"u2", {GateKind::kU2, 1, 2}},
      {"u3", {GateKind::kU3, 1, 3}},     {"u", {GateKind::kU3, 1, 3}},
      {"U", {GateKind::kU3, 1, 3}},      {"cx", {GateKind::kCX, 2, 0}},
      {"CX", {GateKind::kCX, 2, 0}},     {"cz", {GateKind::kCZ, 2, 0}},
      {"cy", {GateKind::kCY, 2, 0}},     {"ch", {GateKind::kCH, 2, 0}},
      {"crz", {GateKind::kCRZ, 2, 1}},   {"cu1", {GateKind::kCU1, 2, 1}},
      {"cp", {GateKind::kCU1, 2, 1}},    {"rzz", {GateKind::kRZZ, 2, 1}},
      {"swap", {GateKind::kSwap, 2, 0}}, {"ccx", {GateKind::kCCX, 3, 0}},
  };
  return table;
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

struct RegisterInfo {
  int offset;
  int size;
};

/// Largest qubit total a program may declare: the device-JSON qubit cap,
/// so no parsed circuit is wider than any device it could be routed on.
constexpr int kMaxTotalQubits = 65536;

/// The value of a size or index token as an int, checked on the double
/// (before any cast) to be an integer in [lo, hi]. Runs once per operand,
/// so messages are built only on the error path.
int integer_token(const Token& tok, int lo, int hi, const char* what) {
  if (!(tok.number == std::floor(tok.number))) {
    throw QasmError(std::string(what) + " must be an integer", tok.line,
                    tok.column);
  }
  if (tok.number < lo || tok.number > hi) {
    throw QasmError(std::string(what) + " out of range [" +
                        std::to_string(lo) + ", " + std::to_string(hi) + "]",
                    tok.line, tok.column);
  }
  return static_cast<int>(tok.number);
}

/// One statement inside a user gate-definition body.
struct BodyOp {
  std::string gate_name;
  std::vector<ExprPtr> params;
  std::vector<std::string> args;  // formal qubit names (no indexing in body)
  bool is_barrier = false;
  int line = 0;
  int column = 0;
};

struct GateDef {
  std::vector<std::string> param_names;
  std::vector<std::string> arg_names;
  std::vector<BodyOp> body;
};

class Parser {
 public:
  Parser(std::string_view source, std::string name)
      : tokens_(tokenize(source)), name_(std::move(name)) {}

  Circuit run() {
    parse_program();
    return finalize();
  }

 private:
  const Token& peek(std::size_t ahead = 0) const {
    const std::size_t i = std::min(pos_ + ahead, tokens_.size() - 1);
    return tokens_[i];
  }
  const Token& advance() { return tokens_[std::min(pos_++, tokens_.size() - 1)]; }
  bool check(TokenKind kind) const { return peek().kind == kind; }
  bool match(TokenKind kind) {
    if (!check(kind)) return false;
    ++pos_;
    return true;
  }
  const Token& expect(TokenKind kind, const std::string& what) {
    if (!check(kind)) {
      throw QasmError("expected " + what + ", got '" + peek().text + "'",
                      peek().line, peek().column);
    }
    return tokens_[pos_++];
  }
  [[noreturn]] void fail(const std::string& message) const {
    throw QasmError(message, peek().line, peek().column);
  }

  // -- grammar --

  void parse_program() {
    if (check(TokenKind::kIdentifier) && peek().text == "OPENQASM") {
      advance();
      expect(TokenKind::kNumber, "version number");
      expect(TokenKind::kSemicolon, "';'");
    }
    while (!check(TokenKind::kEof)) parse_statement();
  }

  /// The register width is final only after the last qreg, so gates are
  /// collected flat and the circuit is built once, at that width.
  Circuit finalize() {
    return Circuit(total_qubits_, std::move(name_), std::move(gates_));
  }

  void parse_statement() {
    const Token& tok = peek();
    if (tok.kind != TokenKind::kIdentifier)
      fail("expected statement, got '" + tok.text + "'");
    const std::string& kw = tok.text;
    if (kw == "include") {
      advance();
      expect(TokenKind::kString, "include path");
      expect(TokenKind::kSemicolon, "';'");
    } else if (kw == "qreg") {
      parse_qreg();
    } else if (kw == "creg") {
      parse_creg();
    } else if (kw == "gate") {
      parse_gate_def();
    } else if (kw == "opaque") {
      parse_opaque();
    } else if (kw == "barrier") {
      parse_barrier();
    } else if (kw == "measure") {
      parse_measure();
    } else if (kw == "reset" || kw == "if") {
      fail("unsupported OpenQASM construct '" + kw + "'");
    } else {
      parse_gate_application();
    }
  }

  void parse_qreg() {
    advance();  // qreg
    const Token name = expect(TokenKind::kIdentifier, "register name");
    expect(TokenKind::kLBracket, "'['");
    const Token size_tok = expect(TokenKind::kNumber, "register size");
    expect(TokenKind::kRBracket, "']'");
    expect(TokenKind::kSemicolon, "';'");
    const int size =
        integer_token(size_tok, 1, kMaxTotalQubits, "register size");
    if (size > kMaxTotalQubits - total_qubits_)
      throw QasmError("qubit total exceeds the limit of " +
                          std::to_string(kMaxTotalQubits),
                      size_tok.line, size_tok.column);
    if (qregs_.count(name.text) != 0)
      throw QasmError("duplicate qreg '" + name.text + "'", name.line,
                      name.column);
    qregs_[name.text] = RegisterInfo{total_qubits_, size};
    total_qubits_ += size;
  }

  void parse_creg() {
    advance();  // creg
    const Token name = expect(TokenKind::kIdentifier, "register name");
    expect(TokenKind::kLBracket, "'['");
    const Token size_tok = expect(TokenKind::kNumber, "register size");
    expect(TokenKind::kRBracket, "']'");
    expect(TokenKind::kSemicolon, "';'");
    cregs_[name.text] =
        integer_token(size_tok, 1, kMaxTotalQubits, "register size");
  }

  void parse_opaque() {
    advance();  // opaque
    while (!check(TokenKind::kSemicolon) && !check(TokenKind::kEof)) advance();
    expect(TokenKind::kSemicolon, "';'");
  }

  void parse_gate_def() {
    advance();  // gate
    const Token name = expect(TokenKind::kIdentifier, "gate name");
    GateDef def;
    if (match(TokenKind::kLParen)) {
      if (!check(TokenKind::kRParen)) {
        do {
          def.param_names.push_back(
              expect(TokenKind::kIdentifier, "parameter name").text);
        } while (match(TokenKind::kComma));
      }
      expect(TokenKind::kRParen, "')'");
    }
    do {
      def.arg_names.push_back(
          expect(TokenKind::kIdentifier, "qubit argument name").text);
    } while (match(TokenKind::kComma));
    expect(TokenKind::kLBrace, "'{'");
    while (!check(TokenKind::kRBrace)) {
      if (check(TokenKind::kEof)) fail("unterminated gate body");
      def.body.push_back(parse_body_op());
    }
    expect(TokenKind::kRBrace, "'}'");
    gate_defs_[name.text] = std::move(def);
  }

  BodyOp parse_body_op() {
    BodyOp op;
    const Token name = expect(TokenKind::kIdentifier, "gate name");
    op.gate_name = name.text;
    op.line = name.line;
    op.column = name.column;
    if (op.gate_name == "barrier") {
      op.is_barrier = true;
    } else if (match(TokenKind::kLParen)) {
      if (!check(TokenKind::kRParen)) {
        do {
          op.params.push_back(parse_expression());
        } while (match(TokenKind::kComma));
      }
      expect(TokenKind::kRParen, "')'");
    }
    do {
      op.args.push_back(expect(TokenKind::kIdentifier, "qubit name").text);
    } while (match(TokenKind::kComma));
    expect(TokenKind::kSemicolon, "';'");
    return op;
  }

  void parse_barrier() {
    advance();  // barrier
    std::vector<Qubit> qubits;
    do {
      for (const Qubit q : parse_argument_expansion()) qubits.push_back(q);
    } while (match(TokenKind::kComma));
    expect(TokenKind::kSemicolon, "';'");
    emit_barrier(qubits);
  }

  void emit_barrier(const std::vector<Qubit>& qubits) {
    if (qubits.empty()) return;
    // Wide barriers become a chained fence of overlapping <=3-qubit Gate
    // records; the shared qubit links the chain, so ordering is transitive.
    if (qubits.size() <= Gate::kMaxQubits) {
      gates_.push_back(Gate::barrier(qubits));
      return;
    }
    for (std::size_t i = 0; i + 1 < qubits.size(); i += 2) {
      const std::size_t last = std::min(i + 2, qubits.size() - 1);
      std::vector<Qubit> link(qubits.begin() + static_cast<std::ptrdiff_t>(i),
                              qubits.begin() +
                                  static_cast<std::ptrdiff_t>(last) + 1);
      gates_.push_back(Gate::barrier(link));
    }
  }

  void parse_measure() {
    advance();  // measure
    const std::vector<Qubit> sources = parse_argument_expansion();
    expect(TokenKind::kArrow, "'->'");
    const Token creg_name = expect(TokenKind::kIdentifier, "creg name");
    const auto creg = cregs_.find(creg_name.text);
    if (creg == cregs_.end())
      throw QasmError("unknown creg '" + creg_name.text + "'", creg_name.line,
                      creg_name.column);
    if (match(TokenKind::kLBracket)) {
      integer_token(expect(TokenKind::kNumber, "bit index"), 0,
                    creg->second - 1, "bit index");
      expect(TokenKind::kRBracket, "']'");
    }
    expect(TokenKind::kSemicolon, "';'");
    for (const Qubit q : sources) gates_.push_back(Gate::measure(q));
  }

  /// Parses one argument (`reg` or `reg[i]`) and returns the qubit indices
  /// it denotes (1 for an indexed arg, register size for a broadcast arg).
  std::vector<Qubit> parse_argument_expansion() {
    const Token name = expect(TokenKind::kIdentifier, "register name");
    const auto it = qregs_.find(name.text);
    if (it == qregs_.end())
      throw QasmError("unknown qreg '" + name.text + "'", name.line,
                      name.column);
    const RegisterInfo& reg = it->second;
    if (match(TokenKind::kLBracket)) {
      const Token idx_tok = expect(TokenKind::kNumber, "qubit index");
      expect(TokenKind::kRBracket, "']'");
      const int idx = integer_token(idx_tok, 0, reg.size - 1, "qubit index");
      return {static_cast<Qubit>(reg.offset + idx)};
    }
    std::vector<Qubit> all(static_cast<std::size_t>(reg.size));
    for (int k = 0; k < reg.size; ++k)
      all[static_cast<std::size_t>(k)] = static_cast<Qubit>(reg.offset + k);
    return all;
  }

  void parse_gate_application() {
    const Token name = advance();
    std::vector<double> params;
    if (match(TokenKind::kLParen)) {
      if (!check(TokenKind::kRParen)) {
        do {
          const ExprPtr e = parse_expression();
          params.push_back(eval(*e, {}, name.line, name.column));
        } while (match(TokenKind::kComma));
      }
      expect(TokenKind::kRParen, "')'");
    }
    std::vector<std::vector<Qubit>> args;
    do {
      args.push_back(parse_argument_expansion());
    } while (match(TokenKind::kComma));
    expect(TokenKind::kSemicolon, "';'");

    // Broadcast: all multi-qubit (register) args must agree in size.
    std::size_t reps = 1;
    for (const auto& a : args) {
      if (a.size() > 1) {
        if (reps != 1 && reps != a.size())
          throw QasmError("mismatched register sizes in broadcast", name.line,
                          name.column);
        reps = a.size();
      }
    }
    for (std::size_t r = 0; r < reps; ++r) {
      std::vector<Qubit> operands;
      operands.reserve(args.size());
      for (const auto& a : args)
        operands.push_back(a.size() == 1 ? a[0] : a[r]);
      apply_named_gate(name.text, params, operands, name.line, name.column);
    }
  }

  void apply_named_gate(const std::string& name,
                        const std::vector<double>& params,
                        const std::vector<Qubit>& operands, int line,
                        int col) {
    // User definitions shadow builtins (matching textual QASM semantics,
    // where qelib1 gates are themselves definitions).
    const auto def_it = gate_defs_.find(name);
    if (def_it != gate_defs_.end()) {
      expand_gate_def(def_it->second, params, operands, line, col);
      return;
    }
    const auto& builtins = builtin_table();
    const auto it = builtins.find(name);
    if (it == builtins.end())
      throw QasmError("unknown gate '" + name + "'", line, col);
    const Builtin& b = it->second;
    if (operands.size() != static_cast<std::size_t>(b.num_qubits))
      throw QasmError("gate '" + name + "' expects " +
                          std::to_string(b.num_qubits) + " qubits",
                      line, col);
    if (params.size() != static_cast<std::size_t>(b.num_params))
      throw QasmError("gate '" + name + "' expects " +
                          std::to_string(b.num_params) + " parameters",
                      line, col);
    for (std::size_t i = 0; i < operands.size(); ++i)
      for (std::size_t j = 0; j < i; ++j)
        if (operands[i] == operands[j])
          throw QasmError("duplicate qubit operand", line, col);
    gates_.emplace_back(b.kind, operands, params);
  }

  void expand_gate_def(const GateDef& def, const std::vector<double>& params,
                       const std::vector<Qubit>& operands, int line,
                       int col) {
    if (params.size() != def.param_names.size())
      throw QasmError("wrong number of parameters in gate call", line, col);
    if (operands.size() != def.arg_names.size())
      throw QasmError("wrong number of qubit arguments in gate call", line,
                      col);
    if (++expansion_depth_ > 64)
      throw QasmError("gate expansion too deep (recursive definition?)", line,
                      col);
    ParamEnv env;
    for (std::size_t i = 0; i < params.size(); ++i)
      env[def.param_names[i]] = params[i];
    std::map<std::string, Qubit> qubit_env;
    for (std::size_t i = 0; i < operands.size(); ++i)
      qubit_env[def.arg_names[i]] = operands[i];

    for (const BodyOp& op : def.body) {
      std::vector<Qubit> op_qubits;
      for (const std::string& arg : op.args) {
        const auto it = qubit_env.find(arg);
        if (it == qubit_env.end())
          throw QasmError("unknown qubit '" + arg + "' in gate body", op.line,
                          op.column);
        op_qubits.push_back(it->second);
      }
      if (op.is_barrier) {
        emit_barrier(op_qubits);
        continue;
      }
      std::vector<double> op_params;
      for (const ExprPtr& e : op.params)
        op_params.push_back(eval(*e, env, op.line, op.column));
      apply_named_gate(op.gate_name, op_params, op_qubits, op.line,
                       op.column);
    }
    --expansion_depth_;
  }

  // -- expression grammar: additive > multiplicative > power > unary --

  ExprPtr parse_expression() { return parse_additive(); }

  ExprPtr parse_additive() {
    ExprPtr lhs = parse_multiplicative();
    while (check(TokenKind::kPlus) || check(TokenKind::kMinus)) {
      const bool add = advance().kind == TokenKind::kPlus;
      ExprPtr rhs = parse_multiplicative();
      auto node = std::make_shared<Expr>();
      node->op = add ? Expr::Op::kAdd : Expr::Op::kSub;
      node->lhs = lhs;
      node->rhs = rhs;
      lhs = node;
    }
    return lhs;
  }

  ExprPtr parse_multiplicative() {
    ExprPtr lhs = parse_power();
    while (check(TokenKind::kStar) || check(TokenKind::kSlash)) {
      const bool mul = advance().kind == TokenKind::kStar;
      ExprPtr rhs = parse_power();
      auto node = std::make_shared<Expr>();
      node->op = mul ? Expr::Op::kMul : Expr::Op::kDiv;
      node->lhs = lhs;
      node->rhs = rhs;
      lhs = node;
    }
    return lhs;
  }

  ExprPtr parse_power() {
    ExprPtr lhs = parse_unary();
    if (check(TokenKind::kCaret)) {
      advance();
      ExprPtr rhs = parse_power();  // right-associative
      auto node = std::make_shared<Expr>();
      node->op = Expr::Op::kPow;
      node->lhs = lhs;
      node->rhs = rhs;
      return node;
    }
    return lhs;
  }

  ExprPtr parse_unary() {
    if (match(TokenKind::kMinus)) {
      auto node = std::make_shared<Expr>();
      node->op = Expr::Op::kNeg;
      node->lhs = parse_unary();
      return node;
    }
    if (match(TokenKind::kPlus)) return parse_unary();
    return parse_primary();
  }

  ExprPtr parse_primary() {
    if (check(TokenKind::kNumber)) {
      auto node = std::make_shared<Expr>();
      node->op = Expr::Op::kNumber;
      node->number = advance().number;
      return node;
    }
    if (check(TokenKind::kIdentifier)) {
      const Token tok = advance();
      if (tok.text == "pi") {
        auto node = std::make_shared<Expr>();
        node->op = Expr::Op::kPi;
        return node;
      }
      if (check(TokenKind::kLParen)) {
        advance();
        ExprPtr arg = parse_expression();
        expect(TokenKind::kRParen, "')'");
        auto node = std::make_shared<Expr>();
        node->op = Expr::Op::kCall;
        node->name = tok.text;
        node->lhs = arg;
        return node;
      }
      auto node = std::make_shared<Expr>();
      node->op = Expr::Op::kParam;
      node->name = tok.text;
      return node;
    }
    if (match(TokenKind::kLParen)) {
      ExprPtr inner = parse_expression();
      expect(TokenKind::kRParen, "')'");
      return inner;
    }
    fail("expected expression");
  }

  std::vector<Token> tokens_;
  std::size_t pos_ = 0;
  std::string name_;
  std::vector<Gate> gates_;
  int total_qubits_ = 0;
  int expansion_depth_ = 0;
  std::map<std::string, RegisterInfo> qregs_;
  std::map<std::string, int> cregs_;
  std::map<std::string, GateDef> gate_defs_;
};

}  // namespace

inline ir::Circuit parse(std::string_view source, std::string circuit_name = "") {
  return Parser(source, std::move(circuit_name)).run();
}

inline ir::Circuit parse_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open qasm file: " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return parse(buffer.str(), path);
}

}  // namespace codar::testing::reference_qasm

namespace codar::testing::reference_qasm {

inline std::string to_qasm(const ir::Circuit& circuit) {
  std::ostringstream out;
  out << "OPENQASM 2.0;\n";
  out << "include \"qelib1.inc\";\n";
  out << "qreg q[" << circuit.num_qubits() << "];\n";
  bool has_measure = false;
  for (const ir::Gate& g : circuit.gates()) {
    if (g.kind() == ir::GateKind::kMeasure) has_measure = true;
  }
  if (has_measure) out << "creg c[" << circuit.num_qubits() << "];\n";

  out << std::setprecision(17);
  for (const ir::Gate& g : circuit.gates()) {
    if (g.kind() == ir::GateKind::kMeasure) {
      out << "measure q[" << g.qubit(0) << "] -> c[" << g.qubit(0) << "];\n";
      continue;
    }
    out << gate_info(g.kind()).name;
    if (g.num_params() > 0) {
      out << '(';
      for (int i = 0; i < g.num_params(); ++i) {
        if (i != 0) out << ',';
        out << g.param(i);
      }
      out << ')';
    }
    out << ' ';
    for (int i = 0; i < g.num_qubits(); ++i) {
      if (i != 0) out << ',';
      out << "q[" << g.qubit(i) << ']';
    }
    out << ";\n";
  }
  return out.str();
}

}  // namespace codar::testing::reference_qasm
