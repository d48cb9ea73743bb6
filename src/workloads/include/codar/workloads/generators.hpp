#pragma once

// Benchmark circuit generators covering the families of the paper's
// 71-benchmark collection (RevLib-style reversible arithmetic, textbook
// algorithms compiled the ScaffCC/Quipper way, QFT-based kernels, random
// circuits). Every generator is deterministic given its arguments.

#include <cstdint>

#include "codar/ir/circuit.hpp"

namespace codar::workloads {

using ir::Circuit;
using ir::Qubit;

/// n-qubit Quantum Fourier Transform (H + controlled-phase ladder);
/// `with_final_swaps` appends the bit-reversal SWAP network.
Circuit qft(int n, bool with_final_swaps = false);

/// Inverse QFT.
Circuit inverse_qft(int n, bool with_initial_swaps = false);

/// GHZ state preparation: H then a CX chain. n >= 2.
Circuit ghz(int n);

/// W-state preparation (Diker's deterministic construction: X, then a
/// cascade of controlled-RY + CX). n >= 2.
Circuit w_state(int n);

/// Bernstein-Vazirani over an n-bit secret (uses n + 1 qubits).
Circuit bernstein_vazirani(int n, std::uint64_t secret);

/// Deutsch-Jozsa over n inputs + 1 ancilla; balanced or constant oracle.
Circuit deutsch_jozsa(int n, bool balanced);

/// Simon's algorithm for an n-bit secret s != 0 (uses 2n qubits).
Circuit simon(int n, std::uint64_t secret);

/// Grover search marking |1...1> over an n-qubit register, with the given
/// number of iterations. Uses n + max(0, n - 3) qubits (CCX-cascade
/// ancillas for the multi-controlled Z).
Circuit grover(int n, int iterations);

/// Cuccaro ripple-carry adder on two `bits`-bit registers
/// (2*bits + 2 qubits: carry-in ancilla, a, b, carry-out).
Circuit cuccaro_adder(int bits);

/// Draper QFT adder |a>|b> -> |a>|a+b> (2*bits qubits; CU1-heavy, a
/// commutativity showcase).
Circuit draper_adder(int bits);

/// `layers` layers of overlapping Toffoli gates on n >= 3 qubits.
Circuit toffoli_chain(int n, int layers);

/// Random circuit: `num_gates` gates, a `two_qubit_fraction` of which are
/// CX on random distinct pairs; the rest draw from {H, X, T, Tdg, S, RZ}.
Circuit random_circuit(int n, int num_gates, double two_qubit_fraction,
                       std::uint64_t seed);

/// QAOA MaxCut ansatz on a random graph with edge probability 3/n:
/// `layers` alternations of RZZ cost and RX mixer layers.
Circuit qaoa_maxcut(int n, int layers, std::uint64_t seed);

/// Hardware-efficient variational ansatz: RY layers + CZ entangler chain.
Circuit hardware_efficient_ansatz(int n, int layers, std::uint64_t seed);

/// First-order Trotterized transverse-field Ising evolution on a chain.
Circuit ising_trotter(int n, int steps);

/// Quantum phase estimation of the phase gate U1(2*pi*theta) with
/// `counting` counting qubits plus one eigenstate qubit. For theta =
/// j / 2^counting the counting register reads exactly j. CU1-heavy, so a
/// strong commutativity workload.
Circuit qpe(int counting, double theta);

}  // namespace codar::workloads
