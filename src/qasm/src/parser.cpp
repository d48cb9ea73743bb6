#include "codar/qasm/parser.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <memory>
#include <numbers>
#include <span>
#include <sstream>
#include <utility>
#include <unordered_map>
#include <vector>

#include "codar/qasm/lexer.hpp"

namespace codar::qasm {

namespace {

using ir::Circuit;
using ir::Gate;
using ir::GateKind;
using ir::Qubit;

// ---------------------------------------------------------------------------
// Builtin gate alphabet (qelib1 subset + QASM builtins U / CX).
// ---------------------------------------------------------------------------

struct Builtin {
  std::string_view name;
  GateKind kind;
  int num_qubits;
  int num_params;
};

constexpr auto kBuiltins = std::to_array<Builtin>({
    {"CX", GateKind::kCX, 2, 0},    {"U", GateKind::kU3, 1, 3},
    {"ccx", GateKind::kCCX, 3, 0},  {"ch", GateKind::kCH, 2, 0},
    {"cp", GateKind::kCU1, 2, 1},   {"crz", GateKind::kCRZ, 2, 1},
    {"cu1", GateKind::kCU1, 2, 1},  {"cx", GateKind::kCX, 2, 0},
    {"cy", GateKind::kCY, 2, 0},    {"cz", GateKind::kCZ, 2, 0},
    {"h", GateKind::kH, 1, 0},      {"id", GateKind::kI, 1, 0},
    {"p", GateKind::kU1, 1, 1},     {"rx", GateKind::kRX, 1, 1},
    {"ry", GateKind::kRY, 1, 1},    {"rz", GateKind::kRZ, 1, 1},
    {"rzz", GateKind::kRZZ, 2, 1},  {"s", GateKind::kS, 1, 0},
    {"sdg", GateKind::kSdg, 1, 0},  {"swap", GateKind::kSwap, 2, 0},
    {"sx", GateKind::kSX, 1, 0},    {"t", GateKind::kT, 1, 0},
    {"tdg", GateKind::kTdg, 1, 0},  {"u", GateKind::kU3, 1, 3},
    {"u1", GateKind::kU1, 1, 1},    {"u2", GateKind::kU2, 1, 2},
    {"u3", GateKind::kU3, 1, 3},    {"x", GateKind::kX, 1, 0},
    {"y", GateKind::kY, 1, 0},      {"z", GateKind::kZ, 1, 0},
});

/// A name of at most four characters packed into an integer, or 0 for a
/// longer one. Identifiers hold no NUL, so the packing is one-to-one, and
/// every builtin name is that short: a lookup compares integers.
constexpr std::uint32_t packed_name(std::string_view name) {
  if (name.size() > 4) return 0;
  std::uint32_t key = 0;
  for (std::size_t i = 0; i < name.size(); ++i) {
    key |= static_cast<std::uint32_t>(static_cast<unsigned char>(name[i]))
           << (8 * i);
  }
  return key;
}

static_assert(std::all_of(kBuiltins.begin(), kBuiltins.end(),
                          [](const Builtin& b) { return b.name.size() <= 4; }));

/// (packed name, index into kBuiltins), sorted for binary search.
constexpr auto kBuiltinKeys = [] {
  std::array<std::pair<std::uint32_t, std::size_t>, kBuiltins.size()> keys{};
  for (std::size_t i = 0; i < kBuiltins.size(); ++i)
    keys[i] = {packed_name(kBuiltins[i].name), i};
  std::sort(keys.begin(), keys.end());
  return keys;
}();

const Builtin* find_builtin(std::string_view name) {
  const std::uint32_t key = packed_name(name);
  const auto* it = std::lower_bound(
      kBuiltinKeys.begin(), kBuiltinKeys.end(), key,
      [](const auto& entry, std::uint32_t k) { return entry.first < k; });
  if (key == 0 || it == kBuiltinKeys.end() || it->first != key) return nullptr;
  return &kBuiltins[it->second];
}

// ---------------------------------------------------------------------------
// Parameter expressions, compiled to postfix tapes (DESIGN.md §15). A tape
// lists each operand before its operator, so evaluating it performs the
// same IEEE operations in the same order as a walk of the expression tree:
// results are bit-identical to it.
// ---------------------------------------------------------------------------

enum class Op : std::uint8_t {
  kNumber,
  kPi,
  kParam,         // a formal parameter of the enclosing gate definition
  kUnknownParam,  // any other name: an error if the tape is evaluated
  kNeg,
  kAdd,
  kSub,
  kMul,
  kDiv,
  kPow,
  kCall,
};

enum class Fn : std::uint8_t { kSin, kCos, kTan, kExp, kLn, kSqrt, kUnknown };

Fn function_named(std::string_view name) {
  if (name == "sin") return Fn::kSin;
  if (name == "cos") return Fn::kCos;
  if (name == "tan") return Fn::kTan;
  if (name == "exp") return Fn::kExp;
  if (name == "ln") return Fn::kLn;
  if (name == "sqrt") return Fn::kSqrt;
  return Fn::kUnknown;
}

struct Insn {
  Op op = Op::kNumber;
  Fn fn = Fn::kUnknown;    ///< kCall: the function applied.
  int param = 0;           ///< kParam: index into the call's parameters.
  double number = 0.0;     ///< kNumber: the literal's value.
  std::string_view name;   ///< kUnknownParam / kCall: spelling, for errors.
};

/// Deepest nesting of parentheses, calls and unary signs in one
/// expression: the compiler recurses once per level, so this bounds its
/// stack on hostile input.
constexpr int kMaxExpressionDepth = 256;

// ---------------------------------------------------------------------------
// User gate definitions
// ---------------------------------------------------------------------------

struct GateDef;

/// A gate name as the program uses it. Bodies resolve each callee to its
/// symbol when they are read, and the symbol's meaning when they are
/// expanded: a later `gate` of the same name redefines what earlier
/// bodies call.
struct Symbol {
  const Builtin* builtin = nullptr;
  const GateDef* def = nullptr;  ///< Shadows the builtin when set.
};

/// One operand of a body statement: the index of the formal qubit it
/// names, or -1 (an error if the statement is expanded).
struct BodyArg {
  int formal;
  std::string_view name;
};

/// One statement of a gate body, its names resolved when it is read.
struct BodyOp {
  std::string_view name;
  const Symbol* symbol = nullptr;  ///< Null for a barrier.
  int line = 0;
  int column = 0;
  std::vector<BodyArg> args;
  std::vector<std::vector<Insn>> params;  ///< One tape per parameter.
};

struct GateDef {
  std::size_t num_params = 0;  ///< Formal parameters, repeats included.
  std::size_t num_args = 0;    ///< Formal qubits, repeats included.
  std::vector<BodyOp> body;
};

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

struct RegisterInfo {
  int offset;
  int size;
};

/// One operand of a top-level statement: qubits first .. first+size-1.
/// An indexed operand (and a one-qubit register) has size 1.
struct Arg {
  Qubit first;
  int size;
};

/// A slice [begin, begin+size) of one of the reader's value stacks.
struct Frame {
  std::size_t begin;
  std::size_t size;
};

/// Largest qubit total a program may declare: the device-JSON qubit cap,
/// so no parsed circuit is wider than any device it could be routed on.
constexpr int kMaxTotalQubits = 65536;

/// Most gate applications one program may expand to (DESIGN.md §15):
/// every emitted gate and every user-gate call entered counts one, so
/// each broadcast repetition is counted too.
constexpr std::size_t kMaxApplications = std::size_t{1} << 20;

/// Expansion work is counted in steps. An application is this many
/// steps; binding one qubit operand into a user-gate call, or evaluating
/// one instruction of a gate-body expression, is one. So a call whose
/// operand list or body expressions are huge is charged for them, while
/// an ordinary call costs about one application.
constexpr std::size_t kStepsPerApplication = 16;

/// Most nested user-gate calls.
constexpr int kMaxExpansionDepth = 64;

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

/// Reads a program in one pass: tokens are pulled one at a time, each
/// statement is checked and expanded as it is read, and its gates go
/// straight into the vector the circuit takes over.
class Parser {
 public:
  Parser(std::string_view source, std::string name)
      : lexer_(source), tok_(lexer_.next()), name_(std::move(name)) {}

  Circuit run() {
    parse_program();
    return finalize();
  }

 private:
  using Formals = std::unordered_map<std::string_view, int>;

  // -- tokens --

  bool check(TokenKind kind) const { return tok_.kind == kind; }
  Token take() {
    const Token tok = tok_;
    tok_ = lexer_.next();
    return tok;
  }
  bool accept(TokenKind kind) {
    if (!check(kind)) return false;
    tok_ = lexer_.next();
    return true;
  }
  Token expect(TokenKind kind, std::string_view what) {
    if (!check(kind)) {
      fail("expected " + std::string(what) + ", got '" +
           std::string(tok_.text) + "'");
    }
    return take();
  }
  [[noreturn]] void fail(const std::string& message) const {
    throw QasmError(message, tok_.line, tok_.column);
  }

  // -- grammar --

  void parse_program() {
    if (check(TokenKind::kIdentifier) && tok_.text == "OPENQASM") {
      take();
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
    if (!check(TokenKind::kIdentifier))
      fail("expected statement, got '" + std::string(tok_.text) + "'");
    statement_line_ = tok_.line;
    statement_column_ = tok_.column;
    const std::string_view kw = tok_.text;
    if (kw == "include") {
      take();
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
      fail("unsupported OpenQASM construct '" + std::string(kw) + "'");
    } else {
      parse_gate_application();
    }
  }

  /// `reg[size];` of a qreg/creg declaration; returns the size token.
  Token parse_register_size() {
    expect(TokenKind::kLBracket, "'['");
    const Token size_tok = expect(TokenKind::kNumber, "register size");
    expect(TokenKind::kRBracket, "']'");
    expect(TokenKind::kSemicolon, "';'");
    return size_tok;
  }

  void parse_qreg() {
    take();  // qreg
    const Token name = expect(TokenKind::kIdentifier, "register name");
    const Token size_tok = parse_register_size();
    const int size =
        integer_token(size_tok, 1, kMaxTotalQubits, "register size");
    if (size > kMaxTotalQubits - total_qubits_)
      throw QasmError("qubit total exceeds the limit of " +
                          std::to_string(kMaxTotalQubits),
                      size_tok.line, size_tok.column);
    if (!qregs_.try_emplace(name.text, RegisterInfo{total_qubits_, size})
             .second)
      throw QasmError("duplicate qreg '" + std::string(name.text) + "'",
                      name.line, name.column);
    total_qubits_ += size;
  }

  void parse_creg() {
    take();  // creg
    const Token name = expect(TokenKind::kIdentifier, "register name");
    const Token size_tok = parse_register_size();
    cregs_.insert_or_assign(
        name.text,
        integer_token(size_tok, 1, kMaxTotalQubits, "register size"));
  }

  void parse_opaque() {
    take();  // opaque
    while (!check(TokenKind::kSemicolon) && !check(TokenKind::kEof)) take();
    expect(TokenKind::kSemicolon, "';'");
  }

  /// The symbol of a gate name, created (with its builtin, if any) on
  /// first use: a gate body keeps a pointer to it.
  Symbol& symbol(std::string_view name) {
    const auto [it, inserted] = symbols_.try_emplace(name);
    if (inserted) it->second.builtin = find_builtin(name);
    return it->second;
  }

  /// What a gate name means now, without creating a symbol: programs
  /// that define no gates never touch the symbol table.
  Symbol lookup(std::string_view name) const {
    if (!symbols_.empty()) {
      if (const auto it = symbols_.find(name); it != symbols_.end())
        return it->second;
    }
    return Symbol{find_builtin(name), nullptr};
  }

  void parse_gate_def() {
    take();  // gate
    const Token name = expect(TokenKind::kIdentifier, "gate name");
    GateDef& def = *defs_.emplace_back(std::make_unique<GateDef>());
    formal_params_.clear();
    formal_qubits_.clear();
    // A repeated formal name denotes its last position, as a later binding
    // of the name would.
    if (accept(TokenKind::kLParen)) {
      if (!check(TokenKind::kRParen)) {
        do {
          const Token param = expect(TokenKind::kIdentifier, "parameter name");
          formal_params_.insert_or_assign(param.text,
                                          static_cast<int>(def.num_params++));
        } while (accept(TokenKind::kComma));
      }
      expect(TokenKind::kRParen, "')'");
    }
    do {
      const Token arg = expect(TokenKind::kIdentifier, "qubit argument name");
      formal_qubits_.insert_or_assign(arg.text,
                                      static_cast<int>(def.num_args++));
    } while (accept(TokenKind::kComma));
    expect(TokenKind::kLBrace, "'{'");
    while (!check(TokenKind::kRBrace)) {
      if (check(TokenKind::kEof)) fail("unterminated gate body");
      parse_body_op(def);
    }
    expect(TokenKind::kRBrace, "'}'");
    symbol(name.text).def = &def;
  }

  void parse_body_op(GateDef& def) {
    const Token name = expect(TokenKind::kIdentifier, "gate name");
    BodyOp& op = def.body.emplace_back();
    op.name = name.text;
    op.line = name.line;
    op.column = name.column;
    if (name.text != "barrier") {
      op.symbol = &symbol(name.text);
      if (accept(TokenKind::kLParen)) {
        if (!check(TokenKind::kRParen)) {
          do {
            compile(op.params.emplace_back(), &formal_params_);
          } while (accept(TokenKind::kComma));
        }
        expect(TokenKind::kRParen, "')'");
      }
    }
    do {
      const Token arg = expect(TokenKind::kIdentifier, "qubit name");
      const auto it = formal_qubits_.find(arg.text);
      op.args.push_back(
          {it == formal_qubits_.end() ? -1 : it->second, arg.text});
    } while (accept(TokenKind::kComma));
    expect(TokenKind::kSemicolon, "';'");
  }

  void parse_barrier() {
    const Token kw = take();  // barrier
    args_.clear();
    std::size_t width = 0;
    do {
      args_.push_back(parse_argument());
      width += static_cast<std::size_t>(args_.back().size);
    } while (accept(TokenKind::kComma));
    expect(TokenKind::kSemicolon, "';'");
    std::size_t arg = 0;
    int offset = 0;
    emit_fence(width, kw.line, kw.column, [&] {
      if (offset == args_[arg].size) {
        ++arg;
        offset = 0;
      }
      return args_[arg].first + offset++;
    });
  }

  /// Emits a barrier over `width` qubits produced in order by `next()`. Up
  /// to three qubits make one Barrier gate; a wider barrier becomes a
  /// chain of overlapping <=3-qubit links, each starting at the previous
  /// link's last qubit, so the fence stays transitive.
  template <typename Next>
  void emit_fence(std::size_t width, int line, int col, Next next) {
    std::array<Qubit, Gate::kMaxQubits> link{};
    if (width == 0) return;
    if (width <= link.size()) {
      for (std::size_t k = 0; k < width; ++k) link[k] = next();
      emit_barrier(std::span(link.data(), width), line, col);
      return;
    }
    link[0] = next();
    for (std::size_t i = 0; i + 1 < width; i += 2) {
      const std::size_t n = std::min(link.size(), width - i);
      for (std::size_t k = 1; k < n; ++k) link[k] = next();
      emit_barrier(std::span(link.data(), n), line, col);
      link[0] = link[n - 1];
    }
  }

  void emit_barrier(std::span<const Qubit> link, int line, int col) {
    for (std::size_t i = 0; i < link.size(); ++i)
      for (std::size_t j = 0; j < i; ++j)
        if (link[i] == link[j])
          throw QasmError("duplicate qubit operand in barrier", line, col);
    emit(Gate::barrier(link));
  }

  void parse_measure() {
    take();  // measure
    const Arg source = parse_argument();
    expect(TokenKind::kArrow, "'->'");
    const Token creg_name = expect(TokenKind::kIdentifier, "creg name");
    const auto creg = cregs_.find(creg_name.text);
    if (creg == cregs_.end())
      throw QasmError("unknown creg '" + std::string(creg_name.text) + "'",
                      creg_name.line, creg_name.column);
    if (accept(TokenKind::kLBracket)) {
      integer_token(expect(TokenKind::kNumber, "bit index"), 0,
                    creg->second - 1, "bit index");
      expect(TokenKind::kRBracket, "']'");
    }
    expect(TokenKind::kSemicolon, "';'");
    for (int k = 0; k < source.size; ++k) emit(Gate::measure(source.first + k));
  }

  /// Parses one operand, `reg` or `reg[i]`.
  Arg parse_argument() {
    const Token name = expect(TokenKind::kIdentifier, "register name");
    const auto it = qregs_.find(name.text);
    if (it == qregs_.end())
      throw QasmError("unknown qreg '" + std::string(name.text) + "'",
                      name.line, name.column);
    const RegisterInfo reg = it->second;
    if (accept(TokenKind::kLBracket)) {
      const Token idx_tok = expect(TokenKind::kNumber, "qubit index");
      expect(TokenKind::kRBracket, "']'");
      return {reg.offset + integer_token(idx_tok, 0, reg.size - 1,
                                         "qubit index"),
              1};
    }
    return {reg.offset, reg.size};
  }

  void parse_gate_application() {
    const Token name = take();
    values_.clear();
    if (accept(TokenKind::kLParen)) {
      if (!check(TokenKind::kRParen)) {
        do {
          compile(tape_, nullptr);
          values_.push_back(evaluate(tape_, {}, name.line, name.column));
        } while (accept(TokenKind::kComma));
      }
      expect(TokenKind::kRParen, "')'");
    }
    args_.clear();
    do {
      args_.push_back(parse_argument());
    } while (accept(TokenKind::kComma));
    expect(TokenKind::kSemicolon, "';'");

    // Broadcast: all multi-qubit (register) args must agree in size.
    int reps = 1;
    for (const Arg& a : args_) {
      if (a.size > 1) {
        if (reps != 1 && reps != a.size)
          throw QasmError("mismatched register sizes in broadcast", name.line,
                          name.column);
        reps = a.size;
      }
    }
    const Symbol gate = lookup(name.text);
    for (int r = 0; r < reps; ++r) {
      qubits_.clear();
      for (const Arg& a : args_)
        qubits_.push_back(a.size == 1 ? a.first : a.first + r);
      apply(gate, name.text, {0, values_.size()}, {0, qubits_.size()},
            name.line, name.column);
    }
  }

  /// Applies a gate to the parameters and qubits in the given frames of
  /// values_ and qubits_.
  void apply(const Symbol& gate, std::string_view name, Frame params,
             Frame qubits, int line, int col) {
    // User definitions shadow builtins (matching textual QASM semantics,
    // where qelib1 gates are themselves definitions).
    if (gate.def != nullptr) {
      expand(*gate.def, params, qubits, line, col);
      return;
    }
    if (gate.builtin == nullptr)
      throw QasmError("unknown gate '" + std::string(name) + "'", line, col);
    const Builtin& b = *gate.builtin;
    if (qubits.size != static_cast<std::size_t>(b.num_qubits))
      throw QasmError("gate '" + std::string(name) + "' expects " +
                          std::to_string(b.num_qubits) + " qubits",
                      line, col);
    if (params.size != static_cast<std::size_t>(b.num_params))
      throw QasmError("gate '" + std::string(name) + "' expects " +
                          std::to_string(b.num_params) + " parameters",
                      line, col);
    const std::span<const Qubit> operands(qubits_.data() + qubits.begin,
                                          qubits.size);
    for (std::size_t i = 0; i < operands.size(); ++i)
      for (std::size_t j = 0; j < i; ++j)
        if (operands[i] == operands[j])
          throw QasmError("duplicate qubit operand", line, col);
    emit(Gate(b.kind, operands,
              std::span<const double>(values_.data() + params.begin,
                                      params.size)));
  }

  /// Expands one call of a user gate. Each body statement pushes its
  /// operands and parameter values onto qubits_ and values_ above the
  /// caller's frames and pops them when applied; frames are offsets, so
  /// they stay valid while the stacks grow.
  void expand(const GateDef& def, Frame params, Frame qubits, int line,
              int col) {
    if (params.size != def.num_params)
      throw QasmError("wrong number of parameters in gate call", line, col);
    if (qubits.size != def.num_args)
      throw QasmError("wrong number of qubit arguments in gate call", line,
                      col);
    if (++expansion_depth_ > kMaxExpansionDepth)
      throw QasmError("gate expansion too deep (recursive definition?)", line,
                      col);
    charge(kStepsPerApplication + qubits.size);

    for (const BodyOp& op : def.body) {
      const std::size_t q0 = qubits_.size();
      for (const BodyArg& arg : op.args) {
        if (arg.formal < 0)
          throw QasmError("unknown qubit '" + std::string(arg.name) +
                              "' in gate body",
                          op.line, op.column);
        const Qubit q =
            qubits_[qubits.begin + static_cast<std::size_t>(arg.formal)];
        qubits_.push_back(q);
      }
      if (op.symbol == nullptr) {  // barrier
        std::size_t k = q0;
        emit_fence(qubits_.size() - q0, op.line, op.column,
                   [&] { return qubits_[k++]; });
        qubits_.resize(q0);
        continue;
      }
      const std::size_t p0 = values_.size();
      for (const std::vector<Insn>& tape : op.params) {
        charge(tape.size());
        const double value = evaluate(
            tape,
            std::span<const double>(values_.data() + params.begin,
                                    params.size),
            op.line, op.column);
        values_.push_back(value);
      }
      apply(*op.symbol, op.name, {p0, values_.size() - p0},
            {q0, qubits_.size() - q0}, op.line, op.column);
      values_.resize(p0);
      qubits_.resize(q0);
    }
    --expansion_depth_;
  }

  /// Appends one gate to the circuit.
  void emit(const Gate& g) {
    charge(kStepsPerApplication);
    gates_.push_back(g);
  }

  /// Counts expansion work against the program's budget; the statement
  /// that crosses it is the error's position.
  void charge(std::size_t steps) {
    steps_ += steps;
    if (steps_ > kMaxApplications * kStepsPerApplication)
      throw QasmError("program expands to more than " +
                          std::to_string(kMaxApplications) +
                          " gate applications",
                      statement_line_, statement_column_);
  }

  // -- expressions: additive > multiplicative > power > unary --

  /// Compiles one expression into `tape`. Names resolve to `formals` (a
  /// gate body's parameters); at top level, or for a name that is not a
  /// formal, the tape keeps the name and fails only if it is evaluated,
  /// as an unused gate body never is.
  void compile(std::vector<Insn>& tape, const Formals* formals) {
    tape.clear();
    out_ = &tape;
    formals_ = formals;
    additive();
  }

  /// Appends an instruction to the tape being compiled.
  Insn& push(Op op) {
    Insn& in = out_->emplace_back();
    in.op = op;
    return in;
  }

  void additive() {
    multiplicative();
    while (check(TokenKind::kPlus) || check(TokenKind::kMinus)) {
      const Op op = take().kind == TokenKind::kPlus ? Op::kAdd : Op::kSub;
      multiplicative();
      push(op);
    }
  }

  void multiplicative() {
    power();
    while (check(TokenKind::kStar) || check(TokenKind::kSlash)) {
      const Op op = take().kind == TokenKind::kStar ? Op::kMul : Op::kDiv;
      power();
      push(op);
    }
  }

  /// `a ^ b ^ c` is right-associative, a^(b^c): its operands in order,
  /// then one kPow per caret.
  void power() {
    unary();
    std::size_t carets = 0;
    while (accept(TokenKind::kCaret)) {
      unary();
      ++carets;
    }
    for (; carets > 0; --carets) push(Op::kPow);
  }

  void unary() {
    if (++expression_depth_ > kMaxExpressionDepth)
      fail("expression nested too deeply");
    if (accept(TokenKind::kMinus)) {
      unary();
      push(Op::kNeg);
    } else if (accept(TokenKind::kPlus)) {
      unary();
    } else {
      primary();
    }
    --expression_depth_;
  }

  void primary() {
    if (check(TokenKind::kNumber)) {
      push(Op::kNumber).number = take().number;
      return;
    }
    if (check(TokenKind::kIdentifier)) {
      const Token id = take();
      if (id.text == "pi") {
        push(Op::kPi);
        return;
      }
      if (accept(TokenKind::kLParen)) {
        additive();
        expect(TokenKind::kRParen, "')'");
        Insn& in = push(Op::kCall);
        in.fn = function_named(id.text);
        in.name = id.text;
        return;
      }
      if (formals_ != nullptr) {
        if (const auto it = formals_->find(id.text); it != formals_->end()) {
          push(Op::kParam).param = it->second;
          return;
        }
      }
      push(Op::kUnknownParam).name = id.text;
      return;
    }
    if (accept(TokenKind::kLParen)) {
      additive();
      expect(TokenKind::kRParen, "')'");
      return;
    }
    fail("expected expression");
  }

  /// Evaluates one tape against a call's parameter values. Only a finite
  /// result is a gate parameter: inf and NaN would be written as text no
  /// reader accepts.
  double evaluate(std::span<const Insn> tape, std::span<const double> env,
                  int line, int col) {
    stack_.clear();
    const auto pop = [this] {
      const double top = stack_.back();
      stack_.pop_back();
      return top;
    };
    for (const Insn& in : tape) {
      switch (in.op) {
        case Op::kNumber: stack_.push_back(in.number); break;
        case Op::kPi: stack_.push_back(std::numbers::pi); break;
        case Op::kParam:
          stack_.push_back(env[static_cast<std::size_t>(in.param)]);
          break;
        case Op::kUnknownParam:
          throw QasmError("unknown parameter '" + std::string(in.name) + "'",
                          line, col);
        case Op::kNeg: stack_.back() = -stack_.back(); break;
        case Op::kAdd: { const double r = pop(); stack_.back() += r; break; }
        case Op::kSub: { const double r = pop(); stack_.back() -= r; break; }
        case Op::kMul: { const double r = pop(); stack_.back() *= r; break; }
        case Op::kDiv: { const double r = pop(); stack_.back() /= r; break; }
        case Op::kPow: {
          const double r = pop();
          stack_.back() = std::pow(stack_.back(), r);
          break;
        }
        case Op::kCall:
          stack_.back() = call(in, stack_.back(), line, col);
          break;
      }
    }
    const double value = stack_.back();
    if (!std::isfinite(value))
      throw QasmError("parameter is not a finite number", line, col);
    return value;
  }

  static double call(const Insn& in, double v, int line, int col) {
    switch (in.fn) {
      case Fn::kSin: return std::sin(v);
      case Fn::kCos: return std::cos(v);
      case Fn::kTan: return std::tan(v);
      case Fn::kExp: return std::exp(v);
      case Fn::kLn: return std::log(v);
      case Fn::kSqrt: return std::sqrt(v);
      case Fn::kUnknown: break;
    }
    throw QasmError("unknown function '" + std::string(in.name) + "'", line,
                    col);
  }

  Lexer lexer_;
  Token tok_;  ///< The current (lookahead) token.
  std::string name_;
  std::vector<Gate> gates_;
  int total_qubits_ = 0;
  std::unordered_map<std::string_view, RegisterInfo> qregs_;
  std::unordered_map<std::string_view, int> cregs_;
  std::unordered_map<std::string_view, Symbol> symbols_;
  /// Every definition read, redefinitions too.
  std::vector<std::unique_ptr<GateDef>> defs_;

  // Expansion state.
  int statement_line_ = 0;
  int statement_column_ = 0;
  std::size_t steps_ = 0;
  int expansion_depth_ = 0;
  std::vector<Arg> args_;       ///< Operands of the current statement.
  std::vector<double> values_;  ///< Parameter values, one frame per call.
  std::vector<Qubit> qubits_;   ///< Operands, one frame per call.

  // Expression compiler and evaluator state.
  std::vector<Insn> tape_;  ///< Reused for every top-level parameter.
  std::vector<Insn>* out_ = nullptr;
  const Formals* formals_ = nullptr;
  int expression_depth_ = 0;
  std::vector<double> stack_;
  Formals formal_params_;
  Formals formal_qubits_;
};

}  // namespace

ir::Circuit parse(std::string_view source, std::string circuit_name) {
  return Parser(source, std::move(circuit_name)).run();
}

ir::Circuit parse_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open qasm file: " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return parse(buffer.view(), path);
}

}  // namespace codar::qasm
