#pragma once

// Weighted-distance cost of a layout, the objective greedy placement
// works on: the oracle of the initial-mapping tests.

#include <cstdint>

#include "codar/arch/coupling_graph.hpp"
#include "codar/layout/initial_mapping.hpp"

namespace codar::testing {

/// Σ over interacting pairs of weight(a,b) * D(π(a), π(b)). Lower is
/// better; the floor is Σ weight (every pair adjacent).
inline std::int64_t mapping_cost(const layout::InteractionGraph& interactions,
                                 const arch::CouplingGraph& coupling,
                                 const layout::Layout& layout) {
  std::int64_t cost = 0;
  for (const auto& [a, b] : interactions.pairs()) {
    cost += interactions.weight(a, b) *
            coupling.distance(layout.physical(a), layout.physical(b));
  }
  return cost;
}

}  // namespace codar::testing
