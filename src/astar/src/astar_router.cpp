#include "codar/astar/astar_router.hpp"

#include <algorithm>
#include <optional>
#include <queue>
#include <unordered_set>

#include "codar/arch/distance_oracle.hpp"
#include "codar/ir/dag.hpp"
#include "codar/ir/decompose.hpp"

namespace codar::astar {

namespace {

using core::RoutingResult;
using ir::Gate;
using ir::GateKind;
using ir::Qubit;
using layout::Layout;

/// FNV-1a hash of a logical->physical vector (the search-state identity).
std::size_t hash_l2p(const std::vector<Qubit>& l2p) {
  std::size_t h = 1469598103934665603u;
  for (const Qubit q : l2p) {
    h ^= static_cast<std::size_t>(static_cast<std::uint32_t>(q)) +
         0x9e3779b97f4a7c15u;
    h *= 1099511628211u;
  }
  return h;
}

/// Partitions the circuit into layers of mutually independent gates (the
/// repeated DAG front construction of the A*-layering papers).
std::vector<std::vector<int>> build_layers(const ir::Circuit& circuit) {
  const ir::DependencyDag dag(circuit);
  std::vector<int> unresolved(circuit.size());
  std::vector<int> ready;
  for (std::size_t i = 0; i < circuit.size(); ++i) {
    unresolved[i] = dag.in_degree(static_cast<int>(i));
    if (unresolved[i] == 0) ready.push_back(static_cast<int>(i));
  }
  std::vector<std::vector<int>> layers;
  while (!ready.empty()) {
    std::sort(ready.begin(), ready.end());
    layers.push_back(ready);
    std::vector<int> next;
    for (const int g : ready) {
      for (const int succ : dag.successors(g)) {
        if (--unresolved[static_cast<std::size_t>(succ)] == 0) {
          next.push_back(succ);
        }
      }
    }
    ready = std::move(next);
  }
  return layers;
}

/// One A* search node: a layout plus the SWAP that produced it and a link
/// to its parent (arena index), for O(depth) path reconstruction.
struct Node {
  Layout layout;
  int parent = -1;
  Qubit swap_a = -1;
  Qubit swap_b = -1;
  int g_cost = 0;
};

struct QueueEntry {
  double f_cost;
  int node;
  friend bool operator>(const QueueEntry& a, const QueueEntry& b) {
    return a.f_cost > b.f_cost;
  }
};

class LayerSearch {
 public:
  LayerSearch(const arch::Device& device, const AstarConfig& config,
              std::vector<std::pair<Qubit, Qubit>> targets)
      : device_(device),
        config_(config),
        dist_(device.graph.oracle()),
        targets_(std::move(targets)) {}

  /// Runs A* from `start`; appends the chosen SWAPs (in order) to `out`
  /// and returns the goal layout, or nullopt when the expansion cap is hit
  /// (the caller then falls back to per-gate greedy routing).
  std::optional<Layout> run(const Layout& start,
                            std::vector<std::pair<Qubit, Qubit>>& out) {
    arena_.clear();
    arena_.push_back(Node{start, -1, -1, -1, 0});
    std::priority_queue<QueueEntry, std::vector<QueueEntry>,
                        std::greater<QueueEntry>> open;
    std::unordered_set<std::size_t> closed;
    open.push(QueueEntry{heuristic(start), 0});
    int expansions = 0;

    while (!open.empty()) {
      const QueueEntry entry = open.top();
      open.pop();
      // Copy out of the arena: push_back below may reallocate it.
      const Layout current = arena_[static_cast<std::size_t>(entry.node)].layout;
      const int current_g = arena_[static_cast<std::size_t>(entry.node)].g_cost;
      if (satisfied(current)) {
        reconstruct(entry.node, out);
        return current;
      }
      const std::size_t key = hash_l2p(current.l2p());
      if (!closed.insert(key).second) continue;
      if (++expansions > config_.max_expansions) break;

      for (const auto& [a, b] : candidate_swaps(current)) {
        Layout next = current;
        next.swap_physical(a, b);
        if (closed.count(hash_l2p(next.l2p())) != 0) continue;
        const int g = current_g + 1;
        const double h = heuristic(next);
        arena_.push_back(Node{std::move(next), entry.node, a, b, g});
        open.push(
            QueueEntry{g + config_.heuristic_weight * h,
                       static_cast<int>(arena_.size()) - 1});
      }
    }
    return std::nullopt;
  }

 private:
  bool satisfied(const Layout& layout) const {
    for (const auto& [la, lb] : targets_) {
      if (!device_.graph.connected(layout.physical(la),
                                   layout.physical(lb))) {
        return false;
      }
    }
    return true;
  }

  /// Admissible-ish remaining-work estimate: each unsatisfied pair still
  /// needs at least D-1 SWAPs (a SWAP shortens one pair by at most 1).
  /// Priced with exact distances, which every backend returns alike, so
  /// the search (and its tie-breaking) cannot depend on the backend.
  double heuristic(const Layout& layout) const {
    double h = 0.0;
    for (const auto& [la, lb] : targets_) {
      const int d = dist_.distance(layout.physical(la), layout.physical(lb));
      h += std::max(0, d - 1);
    }
    return h;
  }

  std::vector<std::pair<Qubit, Qubit>> candidate_swaps(
      const Layout& layout) const {
    std::vector<std::pair<Qubit, Qubit>> swaps;
    for (const auto& [la, lb] : targets_) {
      if (device_.graph.connected(layout.physical(la),
                                  layout.physical(lb))) {
        continue;
      }
      for (const Qubit lq : {la, lb}) {
        const Qubit p = layout.physical(lq);
        for (const Qubit nb : device_.graph.neighbors(p)) {
          const std::pair<Qubit, Qubit> edge{std::min(p, nb),
                                             std::max(p, nb)};
          if (std::find(swaps.begin(), swaps.end(), edge) == swaps.end()) {
            swaps.push_back(edge);
          }
        }
      }
    }
    return swaps;
  }

  void reconstruct(int node, std::vector<std::pair<Qubit, Qubit>>& out) {
    std::vector<std::pair<Qubit, Qubit>> reversed;
    for (int cur = node; cur >= 0;
         cur = arena_[static_cast<std::size_t>(cur)].parent) {
      const Node& n = arena_[static_cast<std::size_t>(cur)];
      if (n.swap_a >= 0) reversed.emplace_back(n.swap_a, n.swap_b);
    }
    out.insert(out.end(), reversed.rbegin(), reversed.rend());
  }

  const arch::Device& device_;
  const AstarConfig& config_;
  const arch::DistanceOracle& dist_;  ///< Cached distance backend.
  std::vector<std::pair<Qubit, Qubit>> targets_;
  std::vector<Node> arena_;
};

}  // namespace

AstarRouter::AstarRouter(const arch::Device& device, AstarConfig config)
    : device_(device), config_(config) {
  CODAR_EXPECTS(device.graph.is_fully_connected());
  CODAR_EXPECTS(config.max_expansions > 0);
  CODAR_EXPECTS(config.heuristic_weight > 0.0);
}

RoutingResult AstarRouter::route(const ir::Circuit& circuit,
                                 const layout::Layout& initial) const {
  CODAR_EXPECTS(ir::is_two_qubit_lowered(circuit));
  CODAR_EXPECTS(circuit.num_qubits() <= device_.graph.num_qubits());
  CODAR_EXPECTS(initial.num_logical() == circuit.num_qubits());
  CODAR_EXPECTS(initial.num_physical() == device_.graph.num_qubits());

  Layout layout = initial;
  ir::Circuit out(device_.graph.num_qubits(), circuit.name() + "_astar");
  core::RouterStats stats;
  // The greedy fallback steps along exact shortest paths through a
  // cached oracle reference.
  const arch::DistanceOracle& dist = device_.graph.oracle();

  // Greedy per-gate fallback: bring one pair together along a shortest
  // path and emit the gate immediately, so later movement cannot break it.
  auto emit_greedily = [&](const Gate& g) {
    if (g.num_qubits() == 2 && g.kind() != GateKind::kBarrier) {
      while (!device_.graph.connected(layout.physical(g.qubit(0)),
                                      layout.physical(g.qubit(1)))) {
        const Qubit pa = layout.physical(g.qubit(0));
        const Qubit pb = layout.physical(g.qubit(1));
        Qubit step = -1;
        for (const Qubit nb : device_.graph.neighbors(pa)) {
          if (step < 0 ||
              dist.distance(nb, pb) < dist.distance(step, pb)) {
            step = nb;
          }
        }
        out.swap(pa, step);
        ++stats.swaps_inserted;
        layout.swap_physical(pa, step);
      }
    }
    out.add(g.remapped([&](Qubit lq) { return layout.physical(lq); }));
  };

  for (const std::vector<int>& layer : build_layers(circuit)) {
    // Collect the layer's two-qubit coupling targets.
    std::vector<std::pair<Qubit, Qubit>> targets;
    for (const int gi : layer) {
      const Gate& g = circuit.gate(static_cast<std::size_t>(gi));
      if (g.num_qubits() == 2 && g.kind() != GateKind::kBarrier) {
        targets.emplace_back(g.qubit(0), g.qubit(1));
      }
    }
    std::vector<std::pair<Qubit, Qubit>> swaps;
    LayerSearch search(device_, config_, std::move(targets));
    const std::optional<Layout> solved = search.run(layout, swaps);
    if (solved.has_value()) {
      layout = *solved;
      for (const auto& [a, b] : swaps) {
        out.swap(a, b);
        ++stats.swaps_inserted;
      }
      for (const int gi : layer) {
        const Gate& g = circuit.gate(static_cast<std::size_t>(gi));
        out.add(g.remapped([&](Qubit lq) { return layout.physical(lq); }));
      }
    } else {
      ++stats.escape_swaps;  // counts fallback layers
      for (const int gi : layer) {
        emit_greedily(circuit.gate(static_cast<std::size_t>(gi)));
      }
    }
  }
  stats.barriers = circuit.barrier_count();
  stats.gates_routed = circuit.size() - stats.barriers;
  return RoutingResult{std::move(out), initial, std::move(layout), stats};
}

RoutingResult AstarRouter::route(const ir::Circuit& circuit) const {
  return route(circuit, layout::Layout(circuit.num_qubits(),
                                       device_.graph.num_qubits()));
}

}  // namespace codar::astar
