#pragma once

// The commutative front by its definition, recomputed from scratch: the
// oracle core::CommutativeFront is checked against.

#include <algorithm>
#include <cstddef>
#include <vector>

#include "codar/common/expects.hpp"
#include "codar/core/commutativity.hpp"
#include "codar/ir/circuit.hpp"

namespace codar::testing {

/// The CF subset of `sequence[pending[0..]]` (paper Definition 1): gate
/// g_k is commutative-forward iff it commutes with every earlier pending
/// gate sharing one of its qubits. Scans at most `window` leading pending
/// gates (those beyond are excluded; `window <= 0` is unbounded) and
/// returns positions *within the pending vector* in ascending order.
///
/// With `use_commutativity = false` this is the plain DAG front layer
/// (first pending gate on each wire), the paper's ablation baseline.
inline std::vector<std::size_t> commutative_front(
    const std::vector<ir::Gate>& sequence, const std::vector<int>& pending,
    int window = 256, bool use_commutativity = true) {
  std::vector<std::size_t> front;
  const std::size_t limit =
      window <= 0 ? pending.size()
                  : std::min(pending.size(), static_cast<std::size_t>(window));
  // wire_gates[q] = positions (into pending) of already-scanned gates on q.
  // Scanning from the head means every earlier pending gate sharing a wire
  // with gate k has already been recorded.
  std::vector<std::vector<std::size_t>> wire_gates;
  for (std::size_t k = 0; k < limit; ++k) {
    const int gate_idx = pending[k];
    CODAR_EXPECTS(gate_idx >= 0 &&
                  static_cast<std::size_t>(gate_idx) < sequence.size());
    const ir::Gate& g = sequence[static_cast<std::size_t>(gate_idx)];
    bool is_front = true;
    for (const ir::Qubit q : g.qubits()) {
      const auto wire = static_cast<std::size_t>(q);
      if (wire >= wire_gates.size()) wire_gates.resize(wire + 1);
      for (const std::size_t earlier : wire_gates[wire]) {
        const ir::Gate& h =
            sequence[static_cast<std::size_t>(pending[earlier])];
        if (!use_commutativity || !core::gates_commute(h, g)) {
          is_front = false;
          break;
        }
      }
      if (!is_front) break;
    }
    if (is_front) front.push_back(k);
    for (const ir::Qubit q : g.qubits()) {
      const auto wire = static_cast<std::size_t>(q);
      // The check loop may have bailed out before sizing every wire.
      if (wire >= wire_gates.size()) wire_gates.resize(wire + 1);
      wire_gates[wire].push_back(k);
    }
  }
  return front;
}

/// Over a whole circuit (all gates pending).
inline std::vector<std::size_t> commutative_front(
    const ir::Circuit& circuit, int window = 0,
    bool use_commutativity = true) {
  const std::vector<ir::Gate> sequence(circuit.gates().begin(),
                                       circuit.gates().end());
  std::vector<int> pending(circuit.size());
  for (std::size_t i = 0; i < pending.size(); ++i) {
    pending[i] = static_cast<int>(i);
  }
  return commutative_front(sequence, pending, window, use_commutativity);
}

}  // namespace codar::testing
