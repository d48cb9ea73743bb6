#pragma once

// The pre-incremental SABRE loop, preserved verbatim as a differential-test
// oracle. This is the original SabreRun from src/sabre/src/sabre_router.cpp
// before the incremental rewrite: every SWAP step rebuilds the candidate
// list with a linear-scan dedup, re-walks the extended set E through a
// circuit-sized `std::vector<bool>`, and re-prices every front and E gate
// for every candidate; the initial mapping runs 2 x rounds full routes,
// emitting circuits it throws away. The loop itself is unedited: it reads
// the CSR DependencyDag through the same successors()/in_degree() calls.
// Around it, the class is renamed and the mapping helper returns the
// layout after every round, so one call covers rounds 1..N. Slow by
// design — its only job is to define the reference behavior the
// production pass must reproduce: same layouts, same routed circuit, same
// swaps_inserted and escape_swaps.

#include <algorithm>
#include <stdexcept>
#include <utility>
#include <vector>

#include "codar/arch/device.hpp"
#include "codar/arch/distance_oracle.hpp"
#include "codar/core/routing_result.hpp"
#include "codar/ir/dag.hpp"
#include "codar/ir/decompose.hpp"
#include "codar/layout/layout.hpp"
#include "codar/sabre/sabre_router.hpp"

namespace codar::testing {

namespace reference_sabre_detail {

using core::RouterStats;
using core::RoutingResult;
using ir::Gate;
using ir::GateKind;
using ir::Qubit;

constexpr std::size_t kMaxIterations = 50'000'000;

/// Working state of one oracle route() invocation (the old SabreRun).
class ReferenceSabreRun {
 public:
  ReferenceSabreRun(const arch::Device& device,
                    const sabre::SabreConfig& config, const ir::Circuit& input,
                    const layout::Layout& initial)
      : device_(device),
        config_(config),
        dist_(device.graph.oracle()),
        input_(input),
        dag_(input),
        pi_(initial),
        initial_(initial),
        decay_(static_cast<std::size_t>(device.graph.num_qubits()), 1.0),
        out_(device.graph.num_qubits(), input.name() + "_sabre") {
    unresolved_.resize(input.size());
    for (std::size_t i = 0; i < input.size(); ++i) {
      unresolved_[i] = dag_.in_degree(static_cast<int>(i));
      if (unresolved_[i] == 0) front_.push_back(static_cast<int>(i));
    }
  }

  RoutingResult run() {
    std::size_t iterations = 0;
    while (!front_.empty()) {
      if (++iterations > kMaxIterations) {
        throw std::runtime_error(
            "ReferenceSabre: iteration cap exceeded (livelock?)");
      }
      if (execute_ready()) {
        since_progress_ = 0;
        continue;
      }
      if (since_progress_ >= config_.stagnation_threshold) {
        escape_swap();
      } else {
        best_swap();
      }
      ++since_progress_;
    }
    RoutingResult result{std::move(out_), std::move(initial_), std::move(pi_),
                         stats_};
    result.stats.barriers = input_.barrier_count();
    result.stats.gates_routed = input_.size() - result.stats.barriers;
    return result;
  }

 private:
  bool executable(const Gate& g) const {
    if (g.num_qubits() != 2 || g.kind() == GateKind::kBarrier) return true;
    return device_.graph.connected(pi_.physical(g.qubit(0)),
                                   pi_.physical(g.qubit(1)));
  }

  /// Retires every executable front gate; returns true when any retired.
  bool execute_ready() {
    bool any = false;
    for (std::size_t i = 0; i < front_.size();) {
      const int gi = front_[i];
      const Gate& g = input_.gate(static_cast<std::size_t>(gi));
      if (!executable(g)) {
        ++i;
        continue;
      }
      out_.add(g.remapped([&](Qubit lq) { return pi_.physical(lq); }));
      front_[i] = front_.back();
      front_.pop_back();
      for (const int succ : dag_.successors(gi)) {
        if (--unresolved_[static_cast<std::size_t>(succ)] == 0) {
          front_.push_back(succ);
        }
      }
      any = true;
    }
    if (any) {
      std::fill(decay_.begin(), decay_.end(), 1.0);
      decay_rounds_ = 0;
    }
    return any;
  }

  /// Candidate SWAPs: coupling edges incident to the physical positions of
  /// the front gates' qubits.
  std::vector<std::pair<Qubit, Qubit>> candidates() const {
    std::vector<std::pair<Qubit, Qubit>> edges;
    for (const int gi : front_) {
      const Gate& g = input_.gate(static_cast<std::size_t>(gi));
      for (const Qubit lq : g.qubits()) {
        const Qubit p = pi_.physical(lq);
        for (const Qubit nb : device_.graph.neighbors(p)) {
          const std::pair<Qubit, Qubit> edge{std::min(p, nb),
                                             std::max(p, nb)};
          if (std::find(edges.begin(), edges.end(), edge) == edges.end()) {
            edges.push_back(edge);
          }
        }
      }
    }
    return edges;
  }

  /// Extended set E: the next 2-qubit gates reachable from the front layer
  /// through the DAG, capped at config.extended_set_size.
  std::vector<int> extended_set() const {
    std::vector<int> ext;
    std::vector<int> queue = front_;
    std::vector<bool> seen(input_.size(), false);
    for (const int gi : queue) seen[static_cast<std::size_t>(gi)] = true;
    for (std::size_t head = 0; head < queue.size(); ++head) {
      if (ext.size() >= static_cast<std::size_t>(config_.extended_set_size))
        break;
      for (const int succ : dag_.successors(queue[head])) {
        if (seen[static_cast<std::size_t>(succ)]) continue;
        seen[static_cast<std::size_t>(succ)] = true;
        queue.push_back(succ);
        const Gate& g = input_.gate(static_cast<std::size_t>(succ));
        if (g.num_qubits() == 2 && g.kind() != GateKind::kBarrier) {
          ext.push_back(succ);
          if (ext.size() >=
              static_cast<std::size_t>(config_.extended_set_size))
            break;
        }
      }
    }
    return ext;
  }

  double distance_after(const Gate& g, Qubit sa, Qubit sb) const {
    auto moved = [&](Qubit p) {
      if (p == sa) return sb;
      if (p == sb) return sa;
      return p;
    };
    const Qubit pa = moved(pi_.physical(g.qubit(0)));
    const Qubit pb = moved(pi_.physical(g.qubit(1)));
    return static_cast<double>(dist_.distance(pa, pb));
  }

  void best_swap() {
    const auto edges = candidates();
    CODAR_ENSURES(!edges.empty());
    const std::vector<int> ext = extended_set();
    // Front 2-qubit gates (everything executable was already retired, so
    // every remaining front gate is a blocked 2-qubit gate).
    std::vector<int> front2q;
    for (const int gi : front_) {
      const Gate& g = input_.gate(static_cast<std::size_t>(gi));
      if (g.num_qubits() == 2 && g.kind() != GateKind::kBarrier) {
        front2q.push_back(gi);
      }
    }
    CODAR_ENSURES(!front2q.empty());

    double best_score = 0.0;
    std::pair<Qubit, Qubit> best{-1, -1};
    for (const auto& [sa, sb] : edges) {
      double front_cost = 0.0;
      for (const int gi : front2q) {
        front_cost +=
            distance_after(input_.gate(static_cast<std::size_t>(gi)), sa, sb);
      }
      front_cost /= static_cast<double>(front2q.size());
      double ext_cost = 0.0;
      if (!ext.empty()) {
        for (const int gi : ext) {
          ext_cost += distance_after(input_.gate(static_cast<std::size_t>(gi)),
                                     sa, sb);
        }
        ext_cost /= static_cast<double>(ext.size());
      }
      const double decay = std::max(decay_[static_cast<std::size_t>(sa)],
                                    decay_[static_cast<std::size_t>(sb)]);
      const double score =
          decay * (front_cost + config_.extended_weight * ext_cost);
      if (best.first < 0 || score < best_score) {
        best_score = score;
        best = {sa, sb};
      }
    }
    apply_swap(best.first, best.second);
  }

  /// Anti-livelock: move the oldest front gate one step along a shortest
  /// path (same guarantee as CODAR's escape).
  void escape_swap() {
    const int gi = *std::min_element(front_.begin(), front_.end());
    const Gate& g = input_.gate(static_cast<std::size_t>(gi));
    CODAR_ENSURES(g.num_qubits() == 2);
    const Qubit pa = pi_.physical(g.qubit(0));
    const Qubit pb = pi_.physical(g.qubit(1));
    Qubit step = -1;
    for (const Qubit nb : device_.graph.neighbors(pa)) {
      if (step < 0 || dist_.distance(nb, pb) < dist_.distance(step, pb)) {
        step = nb;
      }
    }
    CODAR_ENSURES(step >= 0);
    apply_swap(pa, step);
    ++stats_.escape_swaps;
  }

  void apply_swap(Qubit a, Qubit b) {
    out_.swap(a, b);
    pi_.swap_physical(a, b);
    decay_[static_cast<std::size_t>(a)] += config_.decay_delta;
    decay_[static_cast<std::size_t>(b)] += config_.decay_delta;
    ++stats_.swaps_inserted;
    if (++decay_rounds_ >= config_.decay_reset_interval) {
      std::fill(decay_.begin(), decay_.end(), 1.0);
      decay_rounds_ = 0;
    }
  }

  const arch::Device& device_;
  const sabre::SabreConfig& config_;
  const arch::DistanceOracle& dist_;  ///< Cached distance backend.
  const ir::Circuit& input_;
  ir::DependencyDag dag_;
  layout::Layout pi_;
  layout::Layout initial_;
  std::vector<int> unresolved_;
  std::vector<int> front_;
  std::vector<double> decay_;
  int decay_rounds_ = 0;
  int since_progress_ = 0;
  ir::Circuit out_;
  RouterStats stats_;
};

}  // namespace reference_sabre_detail

/// The old SabreRouter::route(circuit, initial).
inline core::RoutingResult route_with_reference_sabre(
    const arch::Device& device, const sabre::SabreConfig& config,
    const ir::Circuit& circuit, const layout::Layout& initial) {
  CODAR_EXPECTS(device.graph.is_fully_connected());
  CODAR_EXPECTS(ir::is_two_qubit_lowered(circuit));
  CODAR_EXPECTS(circuit.num_qubits() <= device.graph.num_qubits());
  CODAR_EXPECTS(initial.num_logical() == circuit.num_qubits());
  CODAR_EXPECTS(initial.num_physical() == device.graph.num_qubits());
  reference_sabre_detail::ReferenceSabreRun run(device, config, circuit,
                                                initial);
  return run.run();
}

/// The old SabreRouter::initial_mapping, for every round count at once:
/// entry r - 1 is initial_mapping(circuit, r, seed) — 2 x r full routes
/// from a seeded random layout, keeping only each route's final layout.
inline std::vector<layout::Layout> reference_sabre_layouts(
    const arch::Device& device, const sabre::SabreConfig& config,
    const ir::Circuit& circuit, int rounds, std::uint64_t seed) {
  CODAR_EXPECTS(rounds >= 1);
  layout::Layout layout = layout::random_layout(
      circuit.num_qubits(), device.graph.num_qubits(), seed);
  const ir::Circuit reversed = circuit.reversed();
  std::vector<layout::Layout> after_round;
  for (int r = 0; r < rounds; ++r) {
    layout = route_with_reference_sabre(device, config, circuit, layout).final;
    layout =
        route_with_reference_sabre(device, config, reversed, layout).final;
    after_round.push_back(layout);
  }
  return after_round;
}

}  // namespace codar::testing
