#include "codar/layout/initial_mapping.hpp"

#include "codar/arch/distance_oracle.hpp"

namespace codar::layout {

InteractionGraph::InteractionGraph(const ir::Circuit& circuit)
    : num_qubits_(circuit.num_qubits()) {
  const auto n = static_cast<std::size_t>(num_qubits_);
  weights_.assign(n * n, 0);
  for (const ir::Gate& g : circuit.gates()) {
    if (g.num_qubits() != 2 || g.kind() == ir::GateKind::kBarrier) continue;
    const auto a = static_cast<std::size_t>(g.qubit(0));
    const auto b = static_cast<std::size_t>(g.qubit(1));
    if (weights_[a * n + b] == 0) {
      pairs_.emplace_back(g.qubit(0), g.qubit(1));
    }
    ++weights_[a * n + b];
    ++weights_[b * n + a];
  }
}

std::int64_t InteractionGraph::weight(Qubit a, Qubit b) const {
  CODAR_EXPECTS(a >= 0 && a < num_qubits_ && b >= 0 && b < num_qubits_);
  return weights_[static_cast<std::size_t>(a) *
                      static_cast<std::size_t>(num_qubits_) +
                  static_cast<std::size_t>(b)];
}

std::int64_t InteractionGraph::degree(Qubit q) const {
  std::int64_t total = 0;
  for (Qubit other = 0; other < num_qubits_; ++other) {
    total += weight(q, other);
  }
  return total;
}

Layout greedy_interaction_layout(const ir::Circuit& circuit,
                                 const arch::CouplingGraph& coupling) {
  const int n = circuit.num_qubits();
  const int n_phys = coupling.num_qubits();
  CODAR_EXPECTS(n <= n_phys);
  const InteractionGraph interactions(circuit);
  const arch::DistanceOracle& dist = coupling.oracle();

  std::vector<Qubit> l2p(static_cast<std::size_t>(n), -1);
  std::vector<bool> phys_used(static_cast<std::size_t>(n_phys), false);
  std::vector<bool> placed(static_cast<std::size_t>(n), false);

  // Seed: strongest logical qubit on the highest-degree physical qubit.
  Qubit seed_logical = 0;
  for (Qubit q = 1; q < n; ++q) {
    if (interactions.degree(q) > interactions.degree(seed_logical)) {
      seed_logical = q;
    }
  }
  Qubit seed_physical = 0;
  for (Qubit p = 1; p < n_phys; ++p) {
    if (coupling.neighbors(p).size() >
        coupling.neighbors(seed_physical).size()) {
      seed_physical = p;
    }
  }
  l2p[static_cast<std::size_t>(seed_logical)] = seed_physical;
  placed[static_cast<std::size_t>(seed_logical)] = true;
  phys_used[static_cast<std::size_t>(seed_physical)] = true;

  for (int round = 1; round < n; ++round) {
    // Next logical qubit: strongest total tie to the placed set (ties ->
    // lowest index, so the result is deterministic).
    Qubit best_logical = -1;
    std::int64_t best_tie = -1;
    for (Qubit q = 0; q < n; ++q) {
      if (placed[static_cast<std::size_t>(q)]) continue;
      std::int64_t tie = 0;
      for (Qubit other = 0; other < n; ++other) {
        if (placed[static_cast<std::size_t>(other)]) {
          tie += interactions.weight(q, other);
        }
      }
      if (tie > best_tie) {
        best_tie = tie;
        best_logical = q;
      }
    }
    // Best free physical slot: minimize weighted distance to the placed
    // partners (falls back to "any free slot nearest the seed" for
    // interaction-free qubits).
    Qubit best_physical = -1;
    std::int64_t best_cost = 0;
    for (Qubit p = 0; p < n_phys; ++p) {
      if (phys_used[static_cast<std::size_t>(p)]) continue;
      std::int64_t cost = 0;
      for (Qubit other = 0; other < n; ++other) {
        if (!placed[static_cast<std::size_t>(other)]) continue;
        const std::int64_t w = interactions.weight(best_logical, other);
        if (w > 0) {
          cost += w * dist.distance(p, l2p[static_cast<std::size_t>(other)]);
        }
      }
      if (best_tie == 0) {
        cost = dist.distance(p, seed_physical);
      }
      if (best_physical < 0 || cost < best_cost) {
        best_cost = cost;
        best_physical = p;
      }
    }
    l2p[static_cast<std::size_t>(best_logical)] = best_physical;
    placed[static_cast<std::size_t>(best_logical)] = true;
    phys_used[static_cast<std::size_t>(best_physical)] = true;
  }
  return Layout::from_l2p(l2p, n_phys);
}

}  // namespace codar::layout
