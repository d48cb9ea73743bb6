// Differential test of the single-pass QASM reader and the to_chars
// writer against the two-step reader and iostream writer they replaced
// (kept verbatim in tests/support/reference_qasm.hpp). Over the parser
// test programs, edge programs and the suite's renderings with seeded
// parameter values, the production reader must accept what the oracle
// accepts (apart from its intended rejections) and build the same
// circuit bit for bit, the pull lexer must yield the oracle's tokens, and
// the writer must match the old one byte for byte.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "codar/ir/circuit.hpp"
#include "codar/qasm/lexer.hpp"
#include "codar/qasm/parser.hpp"
#include "codar/qasm/writer.hpp"
#include "codar/workloads/suite.hpp"
#include "support/qasm_differential.hpp"
#include "support/reference_qasm.hpp"

namespace codar::qasm {
namespace {

namespace ref = codar::testing::reference_qasm;
using codar::testing::compare_readers;
using codar::testing::edge_parameters;
using codar::testing::read_oracle;
using codar::testing::read_production;
using codar::testing::seeded_parameter;
using codar::testing::with_seeded_parameters;

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// Every token of `source`, kEof included.
std::vector<Token> pull_all(std::string_view source) {
  Lexer lexer(source);
  std::vector<Token> tokens;
  do {
    tokens.push_back(lexer.next());
  } while (tokens.back().kind != TokenKind::kEof);
  return tokens;
}

/// "" if the pull lexer yields the oracle's token stream for `source`
/// (kinds, texts, number bits, positions), or throws where the oracle
/// throws, at the same position; a malformed-number error is the one
/// place the pull lexer may throw where the oracle does not.
std::string compare_lexers(std::string_view source) {
  std::vector<ref::Token> want;
  std::string want_error;
  try {
    want = ref::tokenize(source);
  } catch (const ref::QasmError& e) {
    want_error = e.what();
  }
  std::vector<Token> got;
  try {
    got = pull_all(source);
  } catch (const QasmError& e) {
    const std::string error = e.what();
    if (error == want_error) return "";
    if (error.find("malformed number") != std::string::npos &&
        codar::testing::has_malformed_number(source))
      return "";
    return "lexer error '" + error + "' vs oracle '" + want_error + "'";
  }
  if (!want_error.empty()) return "no lexer error; oracle: " + want_error;
  if (got.size() != want.size()) return "token count differs";
  for (std::size_t i = 0; i < got.size(); ++i) {
    const Token& a = got[i];
    const ref::Token& b = want[i];
    if (static_cast<int>(a.kind) != static_cast<int>(b.kind) ||
        a.text != b.text || bits(a.number) != bits(b.number) ||
        a.line != b.line || a.column != b.column) {
      return "token " + std::to_string(i) + " ('" + b.text + "') differs";
    }
  }
  return "";
}

TEST(QasmDifferential, ParserTestProgramsAgree) {
  for (const std::string& program : codar::testing::parser_test_programs()) {
    EXPECT_EQ(compare_readers(program), "") << program;
    EXPECT_EQ(compare_lexers(program), "") << program;
  }
}

TEST(QasmDifferential, EdgeProgramsAgree) {
  for (const std::string& program : codar::testing::edge_programs()) {
    EXPECT_EQ(compare_readers(program), "") << program;
    EXPECT_EQ(compare_lexers(program), "") << program;
  }
}

TEST(QasmDifferential, OnlyTheIntendedRejectionsDiffer) {
  // Programs the oracle accepts and the production reader refuses: the
  // whole list, so none of the new rejections is vacuous.
  const std::string q1 = std::string(codar::testing::kQasmHeader) + "qreg q[1];\n";
  const std::vector<std::string> refused = {
      q1 + "rz(1.2.3) q[0];\n",
      q1 + "rz(1e) q[0];\n",
      q1 + "rz(1e+) q[0];\n",
      q1 + "rz(1e999) q[0];\n",
      q1 + "rz(-1e999) q[0];\n",
      q1 + "rz(0/0) q[0];\n",
      q1 + "gate big(t) a { rz(t*1e308*10) a; }\nbig(1) q[0];\n",
      // The body never reads the infinite first parameter.
      q1 + "gate d(t, t) a { rz(t) a; }\nd(1e999, 2) q[0];\n",
      q1 + "rz(" + std::string(300, '(') + "1" + std::string(300, ')') +
          ") q[0];\n",
  };
  for (const std::string& program : refused) {
    EXPECT_TRUE(read_oracle(program).circuit.has_value()) << program;
    EXPECT_FALSE(read_production(program).circuit.has_value()) << program;
    EXPECT_EQ(compare_readers(program), "") << program;
  }
  int both = 0;
  for (const auto& corpus : {codar::testing::parser_test_programs(),
                             codar::testing::edge_programs()}) {
    for (const std::string& program : corpus) {
      if (read_oracle(program).circuit && read_production(program).circuit) ++both;
    }
  }
  EXPECT_GE(both, 35);
}

TEST(QasmDifferential, SuiteRenderingsWithSeededParametersAgree) {
  std::mt19937_64 rng(20260417);
  int parameterized = 0;
  for (const workloads::BenchmarkSpec& spec : workloads::benchmark_suite()) {
    const ir::Circuit circuit = with_seeded_parameters(spec.circuit, rng);
    const std::string text = to_qasm(circuit);
    ASSERT_EQ(text, ref::to_qasm(circuit)) << spec.name;
    EXPECT_EQ(compare_lexers(text), "") << spec.name;
    const ir::Circuit got = parse(text, circuit.name());
    EXPECT_EQ(codar::testing::circuit_difference(got, circuit), "") << spec.name;
    EXPECT_EQ(codar::testing::circuit_difference(
                  got, ref::parse(text, circuit.name())),
              "")
        << spec.name;
    for (const ir::Gate& g : circuit.gates()) parameterized += g.num_params() > 0;
  }
  EXPECT_GT(parameterized, 1000);
}

/// One gate of `kind` on the first qubits, with `param` for every
/// parameter.
ir::Gate gate_of_kind(ir::GateKind kind, double param) {
  const ir::GateInfo& info = ir::gate_info(kind);
  const int arity = info.num_qubits < 0 ? 3 : info.num_qubits;
  std::vector<ir::Qubit> qubits;
  for (int q = 0; q < arity; ++q) qubits.push_back(2 * q + 1);
  const std::vector<double> params(static_cast<std::size_t>(info.num_params),
                                   param);
  return ir::Gate(kind, qubits, params);
}

TEST(QasmDifferential, WriterMatchesOnEveryGateKindAndEdgeParameter) {
  ir::Circuit circuit(7, "kinds");
  for (std::size_t k = 0; k < ir::kGateKindCount; ++k) {
    const auto kind = static_cast<ir::GateKind>(k);
    if (ir::gate_info(kind).num_params == 0) {
      circuit.add(gate_of_kind(kind, 0.0));
      continue;
    }
    for (const double v : edge_parameters()) circuit.add(gate_of_kind(kind, v));
  }
  const std::string text = to_qasm(circuit);
  EXPECT_EQ(text, ref::to_qasm(circuit));
  EXPECT_EQ(codar::testing::circuit_difference(parse(text, "kinds"), circuit),
            "");

  // Without a measure there is no creg line.
  ir::Circuit no_measure(2, "plain");
  no_measure.cx(0, 1);
  EXPECT_EQ(to_qasm(no_measure), ref::to_qasm(no_measure));
  // A zero-width circuit is written as the header alone, which reads
  // back as itself and writes back as the same text.
  const ir::Circuit empty(0, "empty");
  const std::string header = to_qasm(empty);
  EXPECT_EQ(header, "OPENQASM 2.0;\ninclude \"qelib1.inc\";\n");
  EXPECT_EQ(codar::testing::circuit_difference(parse(header, "empty"), empty),
            "");
  EXPECT_EQ(to_qasm(parse(header)), header);
}

TEST(QasmDifferential, WriterMatchesOnRandomDoubles) {
  std::mt19937_64 rng(7);
  ir::Circuit circuit(1, "doubles");
  for (int i = 0; i < 50000; ++i) circuit.rz(0, seeded_parameter(rng));
  const std::string text = to_qasm(circuit);
  ASSERT_EQ(text, ref::to_qasm(circuit));
  EXPECT_EQ(codar::testing::circuit_difference(parse(text, "doubles"), circuit),
            "");
}

TEST(QasmDifferential, WriterMatchesOnNonFiniteParameters) {
  // The reader no longer produces them, but a circuit built in code can
  // still carry them; the writer renders them as before.
  ir::Circuit circuit(1, "odd");
  for (const double v : {std::numeric_limits<double>::infinity(),
                         -std::numeric_limits<double>::infinity(),
                         std::numeric_limits<double>::quiet_NaN(),
                         -std::numeric_limits<double>::quiet_NaN()}) {
    circuit.rz(0, v);
  }
  EXPECT_EQ(to_qasm(circuit), ref::to_qasm(circuit));
}

}  // namespace
}  // namespace codar::qasm
