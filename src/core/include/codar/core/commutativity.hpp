#pragma once

// Commutativity detection (paper §IV-B). Two ingredients:
//
//  * `gates_commute` — a fast symbolic rule table (disjoint supports,
//    diagonal families, CX control/target structure, ...) with an exact
//    unitary-matrix fallback for pairs the rules don't cover. The rules are
//    cross-validated against the matrix ground truth by property tests.
//    Fallback answers are memoized per thread in a direct-mapped table of
//    kCommuteMemoSlots entries, allocated on a thread's first fallback and
//    keyed exactly (kinds, parameter bits, operand-overlap pattern).
//
//  * `commutative_front` — the CF set of a pending gate sequence: gate g_k
//    is a commutative-forward gate iff it commutes with every earlier
//    pending gate (Definition 1). Only pairs sharing a qubit need checking;
//    a scan window caps the cost on very long circuits.

#include <cstddef>
#include <vector>

#include "codar/ir/circuit.hpp"

namespace codar::core {

/// Slots in each thread's memo of the matrix fallback (a power of two).
inline constexpr std::size_t kCommuteMemoSlots = 4096;

/// True when the two gates commute (AB = BA). Measure and Barrier commute
/// only with gates on disjoint qubits (conservative: a barrier is an
/// explicit ordering fence; a measurement collapses its qubit).
bool gates_commute(const ir::Gate& a, const ir::Gate& b);

/// Computes the CF subset of `sequence[pending[0..]]`, scanning at most
/// `window` leading pending gates (gates beyond the window are
/// conservatively excluded). Returns positions *within the pending vector*
/// in ascending order. `window <= 0` means unbounded.
///
/// With `use_commutativity = false` this degenerates to the plain DAG front
/// layer (first pending gate on each wire), the paper's ablation baseline.
std::vector<std::size_t> commutative_front(
    const std::vector<ir::Gate>& sequence, const std::vector<int>& pending,
    int window = 256, bool use_commutativity = true);

/// Convenience overload over a whole circuit (all gates pending).
std::vector<std::size_t> commutative_front(const ir::Circuit& circuit,
                                           int window = 0,
                                           bool use_commutativity = true);

}  // namespace codar::core
