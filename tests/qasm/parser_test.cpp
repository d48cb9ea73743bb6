#include "codar/qasm/parser.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <limits>
#include <numbers>
#include <string>

#include "codar/qasm/lexer.hpp"
#include "support/time_budget.hpp"

namespace codar::qasm {
namespace {

using ir::GateKind;

constexpr const char* kHeader =
    "OPENQASM 2.0;\ninclude \"qelib1.inc\";\n";

TEST(Parser, EmptyProgramIsEmptyCircuit) {
  const ir::Circuit c = parse(kHeader);
  EXPECT_EQ(c.num_qubits(), 0);
  EXPECT_TRUE(c.empty());
}

TEST(Parser, SingleRegisterAndGates) {
  const ir::Circuit c = parse(std::string(kHeader) +
                              "qreg q[3];\nh q[0];\ncx q[0],q[2];\n");
  EXPECT_EQ(c.num_qubits(), 3);
  ASSERT_EQ(c.size(), 2u);
  EXPECT_EQ(c.gate(0).kind(), GateKind::kH);
  EXPECT_EQ(c.gate(1).kind(), GateKind::kCX);
  EXPECT_EQ(c.gate(1).qubit(1), 2);
}

TEST(Parser, MultipleRegistersAreFlattened) {
  const ir::Circuit c = parse(std::string(kHeader) +
                              "qreg a[2];\nqreg b[3];\ncx a[1],b[0];\n");
  EXPECT_EQ(c.num_qubits(), 5);
  ASSERT_EQ(c.size(), 1u);
  EXPECT_EQ(c.gate(0).qubit(0), 1);  // a[1] -> 1
  EXPECT_EQ(c.gate(0).qubit(1), 2);  // b[0] -> 2
}

TEST(Parser, ParameterExpressions) {
  const ir::Circuit c = parse(std::string(kHeader) +
                              "qreg q[1];\n"
                              "rz(pi/4) q[0];\n"
                              "rz(-pi/2) q[0];\n"
                              "rz(2*pi/8+1) q[0];\n"
                              "rz(sin(0)) q[0];\n"
                              "rz(2^3) q[0];\n");
  using std::numbers::pi;
  EXPECT_DOUBLE_EQ(c.gate(0).param(0), pi / 4.0);
  EXPECT_DOUBLE_EQ(c.gate(1).param(0), -pi / 2.0);
  EXPECT_DOUBLE_EQ(c.gate(2).param(0), pi / 4.0 + 1.0);
  EXPECT_DOUBLE_EQ(c.gate(3).param(0), 0.0);
  EXPECT_DOUBLE_EQ(c.gate(4).param(0), 8.0);
}

TEST(Parser, RegisterBroadcast) {
  const ir::Circuit c =
      parse(std::string(kHeader) + "qreg q[3];\nh q;\n");
  ASSERT_EQ(c.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(c.gate(i).kind(), GateKind::kH);
    EXPECT_EQ(c.gate(i).qubit(0), static_cast<ir::Qubit>(i));
  }
}

TEST(Parser, TwoRegisterBroadcast) {
  const ir::Circuit c = parse(std::string(kHeader) +
                              "qreg a[2];\nqreg b[2];\ncx a,b;\n");
  ASSERT_EQ(c.size(), 2u);
  EXPECT_EQ(c.gate(0).qubit(0), 0);
  EXPECT_EQ(c.gate(0).qubit(1), 2);
  EXPECT_EQ(c.gate(1).qubit(0), 1);
  EXPECT_EQ(c.gate(1).qubit(1), 3);
}

TEST(Parser, MixedBroadcastScalar) {
  const ir::Circuit c = parse(std::string(kHeader) +
                              "qreg a[1];\nqreg b[3];\ncx a[0],b;\n");
  ASSERT_EQ(c.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) EXPECT_EQ(c.gate(i).qubit(0), 0);
}

TEST(Parser, MeasureWithBroadcast) {
  const ir::Circuit c = parse(std::string(kHeader) +
                              "qreg q[2];\ncreg c[2];\nmeasure q -> c;\n");
  ASSERT_EQ(c.size(), 2u);
  EXPECT_EQ(c.gate(0).kind(), GateKind::kMeasure);
  EXPECT_EQ(c.gate(1).qubit(0), 1);
}

TEST(Parser, MeasureSingleBit) {
  const ir::Circuit c = parse(
      std::string(kHeader) +
      "qreg q[2];\ncreg c[2];\nmeasure q[1] -> c[0];\n");
  ASSERT_EQ(c.size(), 1u);
  EXPECT_EQ(c.gate(0).qubit(0), 1);
}

TEST(Parser, BarrierNarrowAndWide) {
  const ir::Circuit narrow = parse(
      std::string(kHeader) + "qreg q[2];\nbarrier q[0], q[1];\n");
  ASSERT_EQ(narrow.size(), 1u);
  EXPECT_EQ(narrow.gate(0).kind(), GateKind::kBarrier);

  // Wide barrier becomes a chained fence of overlapping records.
  const ir::Circuit wide =
      parse(std::string(kHeader) + "qreg q[6];\nbarrier q;\n");
  EXPECT_GE(wide.size(), 2u);
  for (const ir::Gate& g : wide.gates()) {
    EXPECT_EQ(g.kind(), GateKind::kBarrier);
  }
  // Consecutive chain links share a qubit (transitivity of the fence).
  for (std::size_t i = 0; i + 1 < wide.size(); ++i) {
    EXPECT_TRUE(wide.gate(i).overlaps(wide.gate(i + 1)));
  }
}

TEST(Parser, UserGateDefinitionExpands) {
  const ir::Circuit c = parse(std::string(kHeader) +
                              "qreg q[2];\n"
                              "gate bell a, b { h a; cx a, b; }\n"
                              "bell q[0], q[1];\n");
  ASSERT_EQ(c.size(), 2u);
  EXPECT_EQ(c.gate(0).kind(), GateKind::kH);
  EXPECT_EQ(c.gate(1).kind(), GateKind::kCX);
}

TEST(Parser, ParameterizedGateDefinition) {
  const ir::Circuit c = parse(std::string(kHeader) +
                              "qreg q[1];\n"
                              "gate phase2(t) a { rz(t/2) a; rz(t/2) a; }\n"
                              "phase2(pi) q[0];\n");
  ASSERT_EQ(c.size(), 2u);
  EXPECT_DOUBLE_EQ(c.gate(0).param(0), std::numbers::pi / 2.0);
}

TEST(Parser, NestedGateDefinitions) {
  const ir::Circuit c = parse(std::string(kHeader) +
                              "qreg q[2];\n"
                              "gate inner a { h a; }\n"
                              "gate outer a, b { inner a; cx a, b; inner b; }\n"
                              "outer q[0], q[1];\n");
  ASSERT_EQ(c.size(), 3u);
  EXPECT_EQ(c.gate(2).kind(), GateKind::kH);
  EXPECT_EQ(c.gate(2).qubit(0), 1);
}

TEST(Parser, OpaqueDeclarationIgnored) {
  const ir::Circuit c = parse(std::string(kHeader) +
                              "qreg q[1];\nopaque magic a;\nh q[0];\n");
  ASSERT_EQ(c.size(), 1u);
}

TEST(Parser, ErrorUnknownGate) {
  EXPECT_THROW(parse(std::string(kHeader) + "qreg q[1];\nfrobnicate q[0];\n"),
               QasmError);
}

TEST(Parser, ErrorUnknownRegister) {
  EXPECT_THROW(parse(std::string(kHeader) + "qreg q[1];\nh r[0];\n"),
               QasmError);
}

TEST(Parser, ErrorIndexOutOfRange) {
  EXPECT_THROW(parse(std::string(kHeader) + "qreg q[2];\nh q[2];\n"),
               QasmError);
}

TEST(Parser, ErrorWrongArity) {
  EXPECT_THROW(parse(std::string(kHeader) + "qreg q[2];\ncx q[0];\n"),
               QasmError);
  EXPECT_THROW(parse(std::string(kHeader) + "qreg q[1];\nrz q[0];\n"),
               QasmError);
}

TEST(Parser, ErrorDuplicateOperand) {
  EXPECT_THROW(parse(std::string(kHeader) + "qreg q[2];\ncx q[1],q[1];\n"),
               QasmError);
}

TEST(Parser, ErrorUnsupportedConstructs) {
  EXPECT_THROW(parse(std::string(kHeader) + "qreg q[1];\nreset q[0];\n"),
               QasmError);
  EXPECT_THROW(
      parse(std::string(kHeader) +
            "qreg q[1];\ncreg c[1];\nif (c==1) x q[0];\n"),
      QasmError);
}

TEST(Parser, ErrorMismatchedBroadcast) {
  EXPECT_THROW(
      parse(std::string(kHeader) + "qreg a[2];\nqreg b[3];\ncx a,b;\n"),
      QasmError);
}

TEST(Parser, ErrorPositionIsReported) {
  try {
    parse("OPENQASM 2.0;\nqreg q[1];\nbogus q[0];\n");
    FAIL() << "expected QasmError";
  } catch (const QasmError& e) {
    EXPECT_EQ(e.line(), 3);
  }
}

/// Parses `body` (after the standard header) expecting a QasmError whose
/// message names `fragment` and carries no source path of the parser.
void expect_clean_error(const std::string& body, const std::string& fragment) {
  try {
    parse(std::string(kHeader) + body);
    FAIL() << "expected QasmError for: " << body;
  } catch (const QasmError& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find(fragment), std::string::npos) << message;
    EXPECT_EQ(message.find('/'), std::string::npos) << message;
    EXPECT_EQ(message.find(".cpp"), std::string::npos) << message;
  }
}

TEST(Parser, HostileRegistersPastTheCapAreRejected) {
  // Used to overflow the int qubit total and trip an internal assertion.
  expect_clean_error("qreg q[2000000000];\nqreg r[2000000000];\n",
                     "register size out of range [1, 65536]");
  // Each register fits, the total does not.
  expect_clean_error("qreg q[40000];\nqreg r[40000];\n",
                     "qubit total exceeds the limit of 65536");
}

TEST(Parser, HostileHugeRegisterSizeIsRejectedBeforeAnyCast) {
  expect_clean_error("qreg q[1e30];\n", "register size out of range");
  expect_clean_error("qreg q[2];\ncreg c[1e30];\n",
                     "register size out of range");
}

TEST(Parser, HostileFractionalRegisterSizeIsRejected) {
  expect_clean_error("qreg q[2.7];\n", "register size must be an integer");
  expect_clean_error("qreg q[2];\ncreg c[0.5];\n",
                     "register size must be an integer");
}

TEST(Parser, HostileFractionalIndexIsRejected) {
  expect_clean_error("qreg q[3];\nh q[1.9];\n",
                     "qubit index must be an integer");
  expect_clean_error("qreg q[3];\nh q[1e30];\n", "qubit index out of range");
  expect_clean_error("qreg q[2];\ncreg c[2];\nmeasure q[0] -> c[0.5];\n",
                     "bit index must be an integer");
  expect_clean_error("qreg q[2];\ncreg c[2];\nmeasure q[0] -> c[2];\n",
                     "bit index out of range");
}

TEST(Parser, InterleavedRegistersKeepGateOrderAndFinalWidth) {
  const ir::Circuit c = parse(std::string(kHeader) +
                              "qreg a[1];\nh a[0];\nqreg b[2];\n"
                              "cx a[0],b[1];\nqreg d[1];\nx d[0];\n");
  EXPECT_EQ(c.num_qubits(), 4);
  ASSERT_EQ(c.size(), 3u);
  EXPECT_EQ(c.gate(0).kind(), GateKind::kH);
  EXPECT_EQ(c.gate(1).qubit(1), 2);  // b[1] -> 2
  EXPECT_EQ(c.gate(2).qubit(0), 3);  // d[0] -> 3
}

TEST(Parser, QiskitStyleProgramParses) {
  // A representative snippet of the style emitted by Qiskit/ScaffCC.
  const char* program = R"(OPENQASM 2.0;
include "qelib1.inc";
qreg q[4];
creg c[4];
h q[0];
cu1(pi/2) q[1],q[0];
h q[1];
cu1(pi/4) q[2],q[0];
cu1(pi/2) q[2],q[1];
h q[2];
barrier q;
measure q -> c;
)";
  const ir::Circuit c = parse(program, "qft4_fragment");
  EXPECT_EQ(c.num_qubits(), 4);
  EXPECT_EQ(c.name(), "qft4_fragment");
  std::size_t cu1_count = 0;
  std::size_t measures = 0;
  for (const ir::Gate& g : c.gates()) {
    if (g.kind() == GateKind::kCU1) ++cu1_count;
    if (g.kind() == GateKind::kMeasure) ++measures;
  }
  EXPECT_EQ(cu1_count, 3u);
  EXPECT_EQ(measures, 4u);
}


// -- numeric literals and parameter values --

/// The single parameter of the one gate `body` (after a one-qubit
/// register) parses to.
double single_parameter(const std::string& body) {
  const ir::Circuit c = parse(std::string(kHeader) + "qreg q[1];\n" + body);
  EXPECT_EQ(c.size(), 1u);
  return c.gate(0).param(0);
}

TEST(Parser, NumberWithTwoDecimalPointsIsRejected) {
  // Used to read as rz(1.2): the conversion stopped at the second '.'.
  expect_clean_error("qreg q[1];\nrz(1.2.3) q[0];\n", "malformed number '1.2.3'");
}

TEST(Parser, NumberWithBareExponentIsRejected) {
  expect_clean_error("qreg q[1];\nrz(1e) q[0];\n", "malformed number '1e'");
}

TEST(Parser, NumberWithSignedBareExponentIsRejected) {
  expect_clean_error("qreg q[1];\nrz(1e+) q[0];\n", "malformed number '1e+'");
}

TEST(Parser, OverflowingParameterIsRejected) {
  // Used to be accepted as inf, which the writer renders as `inf`: text
  // no reader accepts.
  expect_clean_error("qreg q[1];\nrz(1e999) q[0];\n",
                     "parameter is not a finite number");
}

TEST(Parser, NegativeOverflowingParameterIsRejected) {
  expect_clean_error("qreg q[1];\nrz(-1e999) q[0];\n",
                     "parameter is not a finite number");
}

TEST(Parser, NanParameterIsRejected) {
  expect_clean_error("qreg q[1];\nrz(0/0) q[0];\n",
                     "parameter is not a finite number");
}

TEST(Parser, NonFiniteParameterInsideGateBodyIsRejected) {
  // Finite at the call, infinite once the body scales it.
  try {
    parse(std::string(kHeader) +
          "qreg q[1];\ngate big(t) a { rz(t*1e308*10) a; }\nbig(1) q[0];\n");
    FAIL() << "expected QasmError";
  } catch (const QasmError& e) {
    EXPECT_NE(std::string(e.what()).find("parameter is not a finite number"),
              std::string::npos)
        << e.what();
    EXPECT_EQ(e.line(), 4);  // the body statement, as for other body errors
  }
}

TEST(Parser, InfiniteIntermediateWithFiniteValueIsAccepted) {
  // Only the value handed to the gate must be finite.
  EXPECT_EQ(single_parameter("rz(1/1e999) q[0];\n"), 0.0);
}

TEST(Parser, UnderflowingLiteralReadsAsZero) {
  const double v = single_parameter("rz(1e-999) q[0];\n");
  EXPECT_EQ(v, 0.0);
  EXPECT_FALSE(std::signbit(v));
}

TEST(Parser, SubnormalLiteralsAreExact) {
  EXPECT_EQ(single_parameter("rz(5e-324) q[0];\n"),
            std::numeric_limits<double>::denorm_min());
  EXPECT_EQ(single_parameter("rz(2.2250738585072009e-308) q[0];\n"),
            std::nextafter(std::numeric_limits<double>::min(), 0.0));
}

// -- bounded hostile input --

TEST(Parser, HostileDeepNestingIsRejectedNotACrash) {
  const std::string deep = std::string(100000, '(') + "1" +
                           std::string(100000, ')');
  expect_clean_error("qreg q[1];\nrz(" + deep + ") q[0];\n",
                     "expression nested too deeply");
  expect_clean_error("qreg q[1];\nrz(" + std::string(100000, '-') + "1) q[0];\n",
                     "expression nested too deeply");
}

TEST(Parser, DuplicateBarrierOperandIsATypedError) {
  // Used to escape as an ir::Gate contract violation.
  expect_clean_error("qreg q[2];\nbarrier q[0], q[0];\n",
                     "duplicate qubit operand in barrier");
  expect_clean_error("qreg q[3];\ngate f a, b { barrier a, b; }\nf q[1], q[1];\n",
                     "duplicate qubit operand in barrier");
}

/// A chain of `levels` gate definitions, each calling the previous one
/// twice, over `base`, and one call of the last: 2^levels calls of base.
std::string doubling_chain(const std::string& base, int levels) {
  std::string program = "qreg q[1];\n" + base;
  for (int i = 1; i <= levels; ++i) {
    const std::string prev = "g" + std::to_string(i - 1);
    program += "gate g" + std::to_string(i) + " a { " + prev + " a; " + prev +
               " a; }\n";
  }
  return program + "g" + std::to_string(levels) + " q[0];\n";
}

/// Expects the expansion-budget error, reported at `line` (the header is
/// lines 1-2), within testing::kBoundedWorkSeconds.
void expect_budget_error(const std::string& body, int line) {
  const auto start = std::chrono::steady_clock::now();
  try {
    parse(std::string(kHeader) + body);
    ADD_FAILURE() << "expected the expansion budget to be exceeded";
  } catch (const QasmError& e) {
    EXPECT_NE(std::string(e.what()).find(
                  "program expands to more than 1048576 gate applications"),
              std::string::npos)
        << e.what();
    EXPECT_EQ(e.line(), line);
  }
  const std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - start;
  EXPECT_LT(elapsed.count(), testing::kBoundedWorkSeconds);
}

TEST(Parser, HostileDoublingGateChainHitsTheExpansionBudget) {
  // 2,097,152 gates from about 600 bytes.
  expect_budget_error(doubling_chain("gate g0 a { h a; h a; }\n", 20), 25);
}

TEST(Parser, HostileLongerDoublingGateChainHitsTheExpansionBudget) {
  // 8.4M gates; every further line doubles it.
  expect_budget_error(doubling_chain("gate g0 a { h a; h a; }\n", 22), 27);
}

TEST(Parser, HostileEmptyGateChainHitsTheExpansionBudget) {
  // No gate at all, but 2^21 - 1 calls entered.
  expect_budget_error(doubling_chain("gate g0 a { }\n", 20), 25);
}

TEST(Parser, HostileWideBroadcastHitsTheExpansionBudget) {
  // 50 broadcasts over 65536 qubits: 3,276,800 gates from 279 bytes. The
  // 17th crosses 2^20.
  std::string body = "qreg q[65536];\n";
  for (int i = 0; i < 50; ++i) body += "h q;\n";
  expect_budget_error(body, 2 + 1 + 17);
}

TEST(Parser, HostileWideUserGateBroadcastHitsTheExpansionBudget) {
  // A gate of 20,000 qubit arguments, broadcast over 65536 qubits: each
  // of the 65536 calls binds 20,000 operands, 1.3e9 in all.
  std::string formals = "a0";
  std::string operands = "q";
  for (int i = 1; i < 20000; ++i) {
    formals += ",a" + std::to_string(i);
    operands += ",q";
  }
  expect_budget_error("qreg q[65536];\ngate big " + formals + " { }\nbig " +
                          operands + ";\n",
                      2 + 3);
}

TEST(Parser, HostileLongBodyExpressionHitsTheExpansionBudget) {
  // A body expression of 200,000 instructions, evaluated at each of 65536
  // calls.
  std::string sum = "t";
  for (int i = 1; i < 100000; ++i) sum += "+t";
  expect_budget_error("qreg q[65536];\ngate g(t) a { rz(" + sum +
                          ") a; }\ng(1) q;\n",
                      2 + 3);
}

TEST(Parser, ExpansionBudgetAdmitsExactlyTwoToTheTwenty) {
  std::string body = "qreg q[65536];\n";
  for (int i = 0; i < 16; ++i) body += "x q;\n";
  EXPECT_EQ(parse(std::string(kHeader) + body).size(), std::size_t{1} << 20);
  expect_budget_error(body + "x q[0];\n", 2 + 1 + 16 + 1);
}

}  // namespace
}  // namespace codar::qasm
