#pragma once

// Shared by tests/qasm/qasm_differential_test.cpp and
// tests/qasm/qasm_fuzz_test.cpp: the program corpus, seeded parameter
// values, and the comparison of the production reader against the oracle
// of support/reference_qasm.hpp.
//
// The production reader must accept exactly what the oracle accepts,
// except for the rejections it adds on purpose: a numeric lexeme that
// does not convert in full, a non-finite gate parameter, more than 2^20
// gate applications, and an expression nested deeper than 256 levels.
// An accepted circuit must equal the oracle's bit for bit.

#include <bit>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <exception>
#include <numbers>
#include <optional>
#include <random>
#include <string>
#include <string_view>
#include <vector>

#include "codar/ir/circuit.hpp"
#include "codar/qasm/lexer.hpp"
#include "codar/qasm/parser.hpp"
#include "codar/qasm/writer.hpp"
#include "support/reference_qasm.hpp"

namespace codar::testing {

inline constexpr std::string_view kQasmHeader =
    "OPENQASM 2.0;\ninclude \"qelib1.inc\";\n";

/// Every program of tests/qasm/parser_test.cpp, except the
/// expansion-budget probes (the oracle would expand them without bound)
/// and the 100,000-level nesting (it would overflow the oracle's stack).
inline std::vector<std::string> parser_test_programs() {
  const std::string h(kQasmHeader);
  const std::string q1 = h + "qreg q[1];\n";
  return {
      h,
      h + "qreg q[3];\nh q[0];\ncx q[0],q[2];\n",
      h + "qreg a[2];\nqreg b[3];\ncx a[1],b[0];\n",
      q1 + "rz(pi/4) q[0];\nrz(-pi/2) q[0];\nrz(2*pi/8+1) q[0];\n"
           "rz(sin(0)) q[0];\nrz(2^3) q[0];\n",
      h + "qreg q[3];\nh q;\n",
      h + "qreg a[2];\nqreg b[2];\ncx a,b;\n",
      h + "qreg a[1];\nqreg b[3];\ncx a[0],b;\n",
      h + "qreg q[2];\ncreg c[2];\nmeasure q -> c;\n",
      h + "qreg q[2];\ncreg c[2];\nmeasure q[1] -> c[0];\n",
      h + "qreg q[2];\nbarrier q[0], q[1];\n",
      h + "qreg q[6];\nbarrier q;\n",
      h + "qreg q[2];\ngate bell a, b { h a; cx a, b; }\nbell q[0], q[1];\n",
      q1 + "gate phase2(t) a { rz(t/2) a; rz(t/2) a; }\nphase2(pi) q[0];\n",
      h + "qreg q[2];\ngate inner a { h a; }\n"
          "gate outer a, b { inner a; cx a, b; inner b; }\n"
          "outer q[0], q[1];\n",
      q1 + "opaque magic a;\nh q[0];\n",
      q1 + "frobnicate q[0];\n",
      q1 + "h r[0];\n",
      h + "qreg q[2];\nh q[2];\n",
      h + "qreg q[2];\ncx q[0];\n",
      q1 + "rz q[0];\n",
      h + "qreg q[2];\ncx q[1],q[1];\n",
      q1 + "reset q[0];\n",
      q1 + "creg c[1];\nif (c==1) x q[0];\n",
      h + "qreg a[2];\nqreg b[3];\ncx a,b;\n",
      "OPENQASM 2.0;\nqreg q[1];\nbogus q[0];\n",
      h + "qreg q[2000000000];\nqreg r[2000000000];\n",
      h + "qreg q[40000];\nqreg r[40000];\n",
      h + "qreg q[1e30];\n",
      h + "qreg q[2];\ncreg c[1e30];\n",
      h + "qreg q[2.7];\n",
      h + "qreg q[2];\ncreg c[0.5];\n",
      h + "qreg q[3];\nh q[1.9];\n",
      h + "qreg q[3];\nh q[1e30];\n",
      h + "qreg q[2];\ncreg c[2];\nmeasure q[0] -> c[0.5];\n",
      h + "qreg q[2];\ncreg c[2];\nmeasure q[0] -> c[2];\n",
      h + "qreg a[1];\nh a[0];\nqreg b[2];\ncx a[0],b[1];\nqreg d[1];\n"
          "x d[0];\n",
      h + "qreg q[4];\ncreg c[4];\nh q[0];\ncu1(pi/2) q[1],q[0];\nh q[1];\n"
          "cu1(pi/4) q[2],q[0];\ncu1(pi/2) q[2],q[1];\nh q[2];\nbarrier q;\n"
          "measure q -> c;\n",
      q1 + "rz(1.2.3) q[0];\n",
      q1 + "rz(1e) q[0];\n",
      q1 + "rz(1e+) q[0];\n",
      q1 + "rz(1e999) q[0];\n",
      q1 + "rz(-1e999) q[0];\n",
      q1 + "rz(0/0) q[0];\n",
      q1 + "gate big(t) a { rz(t*1e308*10) a; }\nbig(1) q[0];\n",
      q1 + "rz(1/1e999) q[0];\n",
      q1 + "rz(1e-999) q[0];\n",
      q1 + "rz(5e-324) q[0];\n",
      q1 + "rz(2.2250738585072009e-308) q[0];\n",
      h + "qreg q[2];\nbarrier q[0], q[0];\n",
      h + "qreg q[3];\ngate f a, b { barrier a, b; }\nf q[1], q[1];\n",
  };
}

/// Programs for what parser_test.cpp leaves out.
inline std::vector<std::string> edge_programs() {
  const std::string h(kQasmHeader);
  std::string crlf = h + "qreg q[2];\ncreg c[2];\n// note\nh q[0];\n"
                         "cx q[0], q[1];\nmeasure q -> c;\n";
  for (std::size_t at = crlf.find('\n'); at != std::string::npos;
       at = crlf.find('\n', at + 2)) {
    crlf.insert(at, "\r");
  }
  const std::string nest = std::string(200, '(') + "pi" + std::string(200, ')');
  return {
      // Registers declared between gates, broadcasts of every shape.
      h + "qreg a[2];\nh a;\nqreg b[3];\ncx a[1], b[2];\ncreg c[5];\n"
          "qreg d[1];\nmeasure b -> c;\nx d[0];\nmeasure d[0] -> c[4];\n",
      h + "qreg a[3];\nqreg b[3];\nqreg s[1];\ncx a, b;\ncx s, a;\n"
          "cx a[0], b;\nccx a, b, s[0];\nu3(0.1, 0.2, 0.3) a;\n"
          "rz(pi/8) b;\nswap a, b;\ncrz(-0.5) s, a;\n",
      // Nested parameterised gate bodies, called scalar and broadcast.
      h + "qreg q[3];\nqreg r[3];\n"
          "gate rot(t, p) a { rz(t) a; rx(p*2) a; }\n"
          "gate two(x, y) a, b { rot(x, y/2) a; cx a, b; rot(-x, sin(y)) b; "
          "u3(x, y, x*y) a; }\n"
          "two(0.5, pi^2) q[0], q[1];\ntwo(1e-3, -2) q[1], q[2];\n"
          "two(0.1, 0.2) q, r;\n",
      // Barriers wider than three qubits, at top level and in a body.
      h + "qreg q[7];\nbarrier q;\nbarrier q[0], q[3], q[5], q[6];\n"
          "barrier q[6], q[0], q[1], q[2], q[3];\nbarrier q[2], q;\n"
          "gate fence a, b, c, d, e { barrier a, b, c, d, e; h a; }\n"
          "fence q[0], q[1], q[2], q[3], q[4];\n",
      // Comments everywhere, no final newline.
      "// leading comment\nOPENQASM 2.0; // trailing\ninclude \"qelib1.inc\";"
      "\n// qreg x[9];\nqreg q[2]; // two\nh q[0]; //h\n//\ncx q[0], q[1];"
      "// end",
      crlf,
      // The QASM builtins and every alias of the alphabet.
      h + "qreg q[3];\nU(0.1, 0.2, 0.3) q[0];\nCX q[0], q[1];\n"
          "u(1, 2, 3) q[1];\np(0.5) q[0];\ncp(0.25) q[0], q[1];\nid q[0];\n"
          "sx q[1];\nsdg q[2];\ntdg q[2];\ny q[0];\nz q[1];\ns q[0];\n"
          "t q[1];\nry(0.3) q[2];\nu1(0.1) q[0];\nu2(0.2, 0.3) q[1];\n"
          "cy q[0], q[2];\nch q[2], q[1];\ncz q[1], q[0];\nrzz(0.7) q[0], q[2];\n"
          "cu1(0.9) q[2], q[0];\n",
      h + "qreg q[3];\ncreg c[3];\nh q;\nmeasure q -> c;\nmeasure q[1] -> c[2];\n",
      h + "qreg q[2];\nopaque mystery(a, b) x, y;\nopaque other q;\n"
          "cx q[0], q[1];\n",
      // Late binding: b calls whatever `a` means when b is expanded.
      h + "qreg q[1];\ngate a x { h x; }\ngate b x { a x; }\ngate a x { t x; }\n"
          "b q[0];\n",
      // A definition shadows the builtin of its name.
      h + "qreg q[1];\ngate h a { x a; }\nh q[0];\n",
      // Repeated formal names bind their last position.
      h + "qreg q[2];\ngate d(t, t) a, a { rz(t) a; }\nd(1, 2) q[0], q[1];\n",
      // Errors in a body that is never called are never raised.
      h + "qreg q[1];\ngate bad a { nosuch(foo(zz)) b; }\nh q[0];\n",
      h + "qreg q[1];\ngate r a { r a; }\nr q[0];\n",
      h + "qreg q[1];\nrz(foo(1)) q[0];\n",
      h + "qreg q[1];\ngate g(t) a { rz(t) a; }\ng(zz) q[0];\n",
      h + "qreg q[2];\ngate g a, b { cx a, b; }\ng q[0], q[0];\n",
      h + "qreg q[1];\nrz(" + nest + ") q[0];\n",
      h + "qreg q[1];\nrz(--+-1) q[0];\nrz(-2^2) q[0];\nrz(2^-1^2) q[0];\n"
          "rz(2^3^2) q[0];\nrz(1-2-3) q[0];\nrz(8/4/2) q[0];\n"
          "rz(cos(1)*tan(0.5)+exp(-1)-ln(2)/sqrt(3)) q[0];\n",
      h + "qreg q[1];\nrz(1.) q[0];\nrz(.5) q[0];\nrz(1.e5) q[0];\n"
          "rz(00012) q[0];\nrz(1E-3) q[0];\nrz(2.5e+1) q[0];\n",
      // A string may span lines.
      "OPENQASM 2.0;\ninclude \"qe\nlib\";\nqreg q[1];\nh q[0];\n",
      h + "qreg q[1];\nh q[0]\n",
      h + "qreg q[1];\ngate g a { h a;\n",
      h + "qreg q[1];\nh q[0]; @\n",
      h + "qreg q[1];\ninclude \"oops\n",
  };
}

/// The parameters byte-identical rendering turns on: signed zeros, the
/// smallest subnormal and normal, the largest finite double, values with
/// no exact decimal form, and both sides of the switch to exponent form.
inline std::vector<double> edge_parameters() {
  std::vector<double> values = {0.0,
                                5e-324,
                                2.2250738585072014e-308,
                                1.7976931348623157e308,
                                0.1,
                                1e-5,
                                1e16,
                                1e17,
                                3.0,
                                1e-4,
                                123456789012345680.0,
                                std::numbers::pi};
  const std::size_t n = values.size();
  for (std::size_t i = 0; i < n; ++i) values.push_back(-values[i]);
  return values;
}

/// A seeded parameter value: raw bit patterns (every binade, subnormals
/// included), short decimals, and edge values.
inline double seeded_parameter(std::mt19937_64& rng) {
  static const std::vector<double> edges = edge_parameters();
  switch (rng() % 4) {
    case 0: {
      double v = 0.0;
      do {
        v = std::bit_cast<double>(rng());
      } while (!std::isfinite(v));
      return v;
    }
    case 1:
      return static_cast<double>(static_cast<std::int64_t>(rng() % 2000001) -
                                 1000000) /
             1000.0;
    case 2:
      return edges[rng() % edges.size()];
    default:
      return std::ldexp(static_cast<double>(rng() >> 11), -53) * 2 *
             std::numbers::pi;
  }
}

/// `c` with every parameter replaced by a seeded value.
inline ir::Circuit with_seeded_parameters(const ir::Circuit& c,
                                          std::mt19937_64& rng) {
  ir::Circuit out(c.num_qubits(), c.name());
  for (const ir::Gate& g : c.gates()) {
    std::vector<double> params;
    for (int i = 0; i < g.num_params(); ++i)
      params.push_back(seeded_parameter(rng));
    out.add(ir::Gate(g.kind(), g.qubits(), params));
  }
  return out;
}

/// What one reader made of a program: a circuit, or an error message
/// (with its position, for the production reader's).
struct ReadResult {
  std::optional<ir::Circuit> circuit;
  std::string error;
  int line = 0;
  int column = 0;
};

/// The production reader. Only QasmError is caught: anything else it
/// throws fails the calling test.
inline ReadResult read_production(std::string_view source) {
  try {
    return {qasm::parse(source, "t"), ""};
  } catch (const qasm::QasmError& e) {
    return {std::nullopt, e.what(), e.line(), e.column()};
  }
}

/// The oracle. It also rejects some programs by an ir contract violation
/// (a barrier over a repeated qubit), so any exception counts as a
/// rejection.
inline ReadResult read_oracle(std::string_view source) {
  try {
    return {reference_qasm::parse(source, "t"), ""};
  } catch (const std::exception& e) {
    return {std::nullopt, e.what()};
  }
}

/// A double in 17 significant digits, enough to tell any two apart.
inline std::string exact(double v) {
  char text[32];
  return {text, std::to_chars(text, text + sizeof text, v,
                              std::chars_format::general, 17)
                    .ptr};
}

/// "" if the circuits are equal in width, name, and every gate's kind,
/// operands and parameter bits; otherwise the first difference.
inline std::string circuit_difference(const ir::Circuit& a,
                                      const ir::Circuit& b) {
  if (a.num_qubits() != b.num_qubits()) return "width differs";
  if (a.name() != b.name()) return "name differs";
  if (a.size() != b.size()) {
    return "gate count " + std::to_string(a.size()) + " vs " +
           std::to_string(b.size());
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    const ir::Gate& x = a.gate(i);
    const ir::Gate& y = b.gate(i);
    bool same = x.kind() == y.kind() && x.num_qubits() == y.num_qubits() &&
                x.num_params() == y.num_params();
    for (int k = 0; same && k < x.num_qubits(); ++k)
      same = x.qubit(k) == y.qubit(k);
    for (int k = 0; same && k < x.num_params(); ++k) {
      same = std::bit_cast<std::uint64_t>(x.param(k)) ==
             std::bit_cast<std::uint64_t>(y.param(k));
    }
    if (!same) {
      std::string params;
      for (const double p : x.params()) params += " " + exact(p);
      params += " vs";
      for (const double p : y.params()) params += " " + exact(p);
      return "gate " + std::to_string(i) + ": " + x.to_string() + " vs " +
             y.to_string() + " (parameters" + params + ")";
    }
  }
  return "";
}

/// True if a numeric lexeme of the oracle's token stream does not convert
/// in full (`1.2.3`): the lexeme strtod read a prefix of.
inline bool has_malformed_number(std::string_view source) {
  for (const reference_qasm::Token& tok : reference_qasm::tokenize(source)) {
    if (tok.kind != reference_qasm::TokenKind::kNumber) continue;
    double value = 0.0;
    const char* last = tok.text.data() + tok.text.size();
    if (std::from_chars(tok.text.data(), last, value).ptr != last) return true;
  }
  return false;
}

/// True if the oracle's token at (line, column) names a gate that
/// `source` defines with a `gate` statement.
inline bool names_defined_gate(std::string_view source, int line,
                               int column) {
  const std::vector<reference_qasm::Token> tokens =
      reference_qasm::tokenize(source);
  const reference_qasm::Token* at = nullptr;
  for (const reference_qasm::Token& tok : tokens) {
    if (tok.line == line && tok.column == column) at = &tok;
  }
  if (at == nullptr || at->kind != reference_qasm::TokenKind::kIdentifier)
    return false;
  for (std::size_t i = 0; i + 1 < tokens.size(); ++i) {
    if (tokens[i].text == "gate" && tokens[i + 1].text == at->text) return true;
  }
  return false;
}

inline bool has_non_finite_parameter(const ir::Circuit& c) {
  for (const ir::Gate& g : c.gates()) {
    for (const double p : g.params()) {
      if (!std::isfinite(p)) return true;
    }
  }
  return false;
}

/// "" if the production reader's rejection `got` of `source` is one of
/// its intended rejections of a program the oracle read as `oracle`;
/// otherwise why not. The lexeme and finiteness rejections are checked
/// against the oracle's own tokens and circuit, the nesting one by its
/// message. A non-finite value passed to a user gate whose body never
/// reads it leaves no trace in the oracle's circuit, so that rejection
/// must point at a call of a gate the program defines.
inline std::string unexplained_rejection(std::string_view source,
                                         const ReadResult& got,
                                         const ir::Circuit& oracle) {
  const std::string& error = got.error;
  const auto says = [&](std::string_view what) {
    return error.find(what) != std::string::npos;
  };
  if (says("malformed number")) {
    return has_malformed_number(source)
               ? ""
               : "no oracle lexeme is malformed: " + error;
  }
  if (says("parameter is not a finite number")) {
    return has_non_finite_parameter(oracle) ||
                   names_defined_gate(source, got.line, got.column)
               ? ""
               : "the oracle's parameters are all finite: " + error;
  }
  if (says("expression nested too deeply")) return "";
  return "the oracle accepts it: " + error;
}

/// The differential property for one program: "" if the readers agree,
/// otherwise what differs. If the production reader accepts, the oracle
/// must accept the same circuit, and reading the circuit's own rendering
/// must give it back; if it rejects a program the oracle accepts, the
/// rejection must be an intended one. A program over the expansion budget
/// is not given to the oracle, which would expand it in full.
inline std::string compare_readers(std::string_view source) {
  const ReadResult got = read_production(source);
  if (got.error.find("gate applications") != std::string::npos) return "";
  const ReadResult want = read_oracle(source);
  if (got.circuit) {
    if (!want.circuit)
      return "accepted what the oracle rejects (" + want.error + ")";
    if (std::string d = circuit_difference(*got.circuit, *want.circuit);
        !d.empty())
      return "circuit differs from the oracle's: " + d;
    const ir::Circuit again = qasm::parse(qasm::to_qasm(*got.circuit), "t");
    if (std::string d = circuit_difference(again, *got.circuit); !d.empty())
      return "parse(to_qasm(c)) != c: " + d;
    return "";
  }
  if (want.circuit) return unexplained_rejection(source, got, *want.circuit);
  return "";
}

}  // namespace codar::testing
