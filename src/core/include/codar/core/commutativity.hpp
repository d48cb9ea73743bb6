#pragma once

// Commutativity detection (paper §IV-B): `gates_commute`, a fast symbolic
// rule table (disjoint supports, diagonal families, CX control/target
// structure, ...) with an exact unitary-matrix fallback for pairs the
// rules don't cover. The rules are cross-validated against the matrix
// ground truth by property tests. Fallback answers are memoized per
// thread in a direct-mapped table of kCommuteMemoSlots entries, allocated
// on a thread's first fallback and keyed exactly (kinds, parameter bits,
// operand-overlap pattern). The router's commutative front (Definition 1)
// is core::CommutativeFront (front.hpp).

#include <cstddef>

#include "codar/ir/circuit.hpp"

namespace codar::core {

/// Slots in each thread's memo of the matrix fallback (a power of two).
inline constexpr std::size_t kCommuteMemoSlots = 4096;

/// True when the two gates commute (AB = BA). Measure and Barrier commute
/// only with gates on disjoint qubits (conservative: a barrier is an
/// explicit ordering fence; a measurement collapses its qubit).
bool gates_commute(const ir::Gate& a, const ir::Gate& b);

}  // namespace codar::core
