#pragma once

// Recursive-descent parser for an OpenQASM 2.0 subset sufficient for the
// paper's benchmark families:
//
//   * OPENQASM 2.0; / include "...";  (includes are ignored; the qelib1
//     gate alphabet is built in)
//   * qreg / creg declarations (multiple registers are flattened into one
//     contiguous qubit index space, in declaration order)
//   * gate applications with constant-folded parameter expressions
//     (numbers, pi, + - * / ^, unary minus, sin/cos/tan/exp/ln/sqrt)
//   * user-defined `gate name(params) args { body }` definitions, expanded
//     inline at application sites
//   * register broadcast (`h q;`, `cx q, r;`, `measure q -> c;`)
//   * barrier (wide barriers are lowered to a chained fence of <=3-qubit
//     Barrier gates), opaque declarations (parsed, ignored)
//
// Unsupported constructs (`if`, `reset`) raise QasmError with position,
// as do malformed numbers, non-finite parameter values, expressions nested
// deeper than 256 levels and programs that expand to more than 2^20 gate
// applications (DESIGN.md §15): untrusted text is read in bounded time and
// memory.

#include <string>
#include <string_view>

#include "codar/ir/circuit.hpp"

namespace codar::qasm {

/// Parses OpenQASM 2.0 source into a flat circuit, in one pass over the
/// text. Throws QasmError on lexical, syntactic or semantic errors.
ir::Circuit parse(std::string_view source, std::string circuit_name = "");

/// Reads and parses a .qasm file. Throws std::runtime_error if the file
/// cannot be read, QasmError on parse errors.
ir::Circuit parse_file(const std::string& path);

}  // namespace codar::qasm
