#pragma once

// Gate dependency DAG. Two gates depend on each other when they share a
// qubit and appear in sequence order; the DAG keeps only the immediate
// (per-wire) edges. Used by the SABRE baseline's front layer and by the
// A* baseline's layering.
//
// Storage is CSR: one offsets array plus one flat index array per
// direction, so a DAG is four allocations regardless of circuit size.
// Adjacency order is part of the contract, since SABRE's front order (and
// so its tie-breaks) follows it: successors(i) ascends by gate index, and
// predecessors(i) follows gate i's operand order.

#include <span>
#include <vector>

#include "codar/ir/circuit.hpp"

namespace codar::ir {

/// Immediate-dependency DAG of a circuit. Node i corresponds to gate i of
/// the circuit it was built from.
class DependencyDag {
 public:
  explicit DependencyDag(const Circuit& circuit);

  std::size_t size() const { return pred_offsets_.size() - 1; }

  /// Gates that must retire before gate i may start (per-wire immediate
  /// predecessors, deduplicated, in gate i's operand order).
  std::span<const int> predecessors(int i) const {
    return row(pred_offsets_, pred_, i);
  }
  /// Gates that directly wait on gate i, ascending.
  std::span<const int> successors(int i) const {
    return row(succ_offsets_, succ_, i);
  }
  int in_degree(int i) const {
    return static_cast<int>(predecessors(i).size());
  }

  /// Indices of gates with no predecessors (the initial front layer).
  std::vector<int> roots() const;

 private:
  std::span<const int> row(const std::vector<int>& offsets,
                           const std::vector<int>& flat, int i) const {
    CODAR_EXPECTS(i >= 0 && static_cast<std::size_t>(i) < size());
    const auto at = static_cast<std::size_t>(i);
    const auto begin = static_cast<std::size_t>(offsets[at]);
    const auto end = static_cast<std::size_t>(offsets[at + 1]);
    return {flat.data() + begin, end - begin};
  }

  std::vector<int> pred_offsets_;  ///< size() + 1 entries into pred_.
  std::vector<int> pred_;
  std::vector<int> succ_offsets_;  ///< size() + 1 entries into succ_.
  std::vector<int> succ_;
};

}  // namespace codar::ir
