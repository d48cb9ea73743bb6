#include "codar/qasm/writer.hpp"

#include <algorithm>
#include <charconv>
#include <string_view>

namespace codar::qasm {

namespace {

/// Longest rendered gate line: a 7-letter name, three 24-character
/// parameters (`-2.2250738585072014e-308`) and three `q[2147483647]`
/// operands with their separators fit with room to spare.
constexpr std::size_t kMaxLine = 160;

/// An int in decimal, as iostreams write it.
char* put_int(char* p, long long v) {
  return std::to_chars(p, p + 24, v).ptr;
}

/// A parameter as iostreams write it at precision 17 in the default
/// float format (`%.17g`): 17 significant digits, enough for the text to
/// read back as the same double.
char* put_param(char* p, double v) {
  return std::to_chars(p, p + 32, v, std::chars_format::general, 17).ptr;
}

char* put(char* p, std::string_view text) {
  return std::copy(text.begin(), text.end(), p);
}

}  // namespace

std::string to_qasm(const ir::Circuit& circuit) {
  std::string out;
  out.reserve(64 + 24 * circuit.size());
  char line[kMaxLine];
  out += "OPENQASM 2.0;\ninclude \"qelib1.inc\";\n";
  // A zero-width circuit has no register: `qreg q[0];` is no valid size,
  // and a program without a qreg reads back as zero-width.
  if (circuit.num_qubits() > 0) {
    char* p = put(line, "qreg q[");
    p = put(put_int(p, circuit.num_qubits()), "];\n");
    out.append(line, p);
  }
  bool has_measure = false;
  for (const ir::Gate& g : circuit.gates()) {
    if (g.kind() == ir::GateKind::kMeasure) has_measure = true;
  }
  if (has_measure) {
    char* p = put(line, "creg c[");
    p = put(put_int(p, circuit.num_qubits()), "];\n");
    out.append(line, p);
  }

  for (const ir::Gate& g : circuit.gates()) {
    char* p = line;
    if (g.kind() == ir::GateKind::kMeasure) {
      p = put(put_int(put(p, "measure q["), g.qubit(0)), "] -> c[");
      p = put(put_int(p, g.qubit(0)), "];\n");
      out.append(line, p);
      continue;
    }
    p = put(p, gate_info(g.kind()).name);
    if (g.num_params() > 0) {
      *p++ = '(';
      for (int i = 0; i < g.num_params(); ++i) {
        if (i != 0) *p++ = ',';
        p = put_param(p, g.param(i));
      }
      *p++ = ')';
    }
    *p++ = ' ';
    for (int i = 0; i < g.num_qubits(); ++i) {
      if (i != 0) *p++ = ',';
      p = put(put_int(put(p, "q["), g.qubit(i)), "]");
    }
    p = put(p, ";\n");
    out.append(line, p);
  }
  return out;
}

}  // namespace codar::qasm
