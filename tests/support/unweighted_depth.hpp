#pragma once

// Classic layer depth, the oracle the scheduler tests hold the weighted
// depth to: with every gate at one cycle the two must agree.

#include <algorithm>
#include <vector>

#include "codar/ir/circuit.hpp"

namespace codar::testing {

/// Depth counting every non-barrier gate as one layer.
inline int unweighted_depth(const ir::Circuit& circuit) {
  std::vector<int> depth(static_cast<std::size_t>(circuit.num_qubits()), 0);
  int max_depth = 0;
  for (const ir::Gate& g : circuit.gates()) {
    int layer = 0;
    for (const ir::Qubit q : g.qubits()) {
      layer = std::max(layer, depth[static_cast<std::size_t>(q)]);
    }
    if (g.kind() != ir::GateKind::kBarrier) ++layer;
    for (const ir::Qubit q : g.qubits()) {
      depth[static_cast<std::size_t>(q)] = layer;
    }
    max_depth = std::max(max_depth, layer);
  }
  return max_depth;
}

}  // namespace codar::testing
