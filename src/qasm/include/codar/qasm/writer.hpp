#pragma once

// OpenQASM 2.0 emitter: renders an IR circuit back to text that our own
// parser (and Qiskit) accept. Round-tripping is covered by tests.

#include <string>

#include "codar/ir/circuit.hpp"

namespace codar::qasm {

/// Renders the circuit as an OpenQASM 2.0 program over one flat register
/// `q[num_qubits]` (plus `c[num_qubits]` when the circuit measures). A
/// zero-width circuit is the header alone, which reads back as itself.
std::string to_qasm(const ir::Circuit& circuit);

}  // namespace codar::qasm
