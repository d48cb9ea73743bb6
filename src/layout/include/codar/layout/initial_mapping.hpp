#pragma once

// Initial-mapping strategies. The paper: "Initial mapping has been proved
// to be significant for the qubit mapping problem" — its evaluation uses
// SABRE's reverse traversal (implemented in codar::sabre). This module
// adds a router-independent alternative, the `greedy` mapping of the
// initial-mapping ablation: interaction-graph greedy placement, which puts
// strongly-interacting logical qubits on adjacent, high-degree physical
// qubits (BFS expansion).

#include <cstdint>
#include <vector>

#include "codar/arch/coupling_graph.hpp"
#include "codar/ir/circuit.hpp"
#include "codar/layout/layout.hpp"

namespace codar::layout {

/// Weighted logical interaction graph: weight(a, b) = number of two-qubit
/// gates between logical qubits a and b.
class InteractionGraph {
 public:
  explicit InteractionGraph(const ir::Circuit& circuit);

  int num_qubits() const { return num_qubits_; }
  /// Interaction count between a pair (symmetric).
  std::int64_t weight(Qubit a, Qubit b) const;
  /// Sum of interaction counts incident to q.
  std::int64_t degree(Qubit q) const;
  /// Pairs with nonzero weight.
  const std::vector<std::pair<Qubit, Qubit>>& pairs() const { return pairs_; }

 private:
  int num_qubits_;
  std::vector<std::int64_t> weights_;  // dense n*n
  std::vector<std::pair<Qubit, Qubit>> pairs_;
};

/// Greedy placement: seeds the strongest-interacting logical qubit on the
/// physical qubit with the highest degree, then repeatedly places the
/// unplaced logical qubit with the strongest ties to the placed set on the
/// free physical qubit minimizing weighted distance to its placed
/// partners. Deterministic.
Layout greedy_interaction_layout(const ir::Circuit& circuit,
                                 const arch::CouplingGraph& coupling);

}  // namespace codar::layout
