#pragma once

// SABRE baseline (Li, Ding, Xie — ASPLOS 2019): the SWAP-based
// bidirectional heuristic the paper compares CODAR against. Implements the
// published algorithm from its description:
//
//  * DAG front layer F; every dependency-free, coupling-compliant gate is
//    retired eagerly;
//  * when F is blocked, candidate SWAPs are the coupling edges incident to
//    F's physical qubits, scored by nearest-neighbour distance over F plus
//    a look-ahead term over the extended set E (successor 2-qubit gates),
//    multiplied by a decay factor that discourages serializing SWAPs on
//    the same qubits;
//  * initial mappings come from reverse-traversal refinement: route the
//    circuit forward, route its reverse starting from the resulting final
//    layout, and iterate.
//
// SABRE is duration- and context-blind by design — that is precisely the
// gap CODAR exploits.

#include "codar/arch/device.hpp"
#include "codar/core/routing_result.hpp"
#include "codar/layout/layout.hpp"

namespace codar::sabre {

/// Tuning knobs with the values published in the SABRE paper.
struct SabreConfig {
  double extended_weight = 0.5;  ///< W: weight of the look-ahead term.
  int extended_set_size = 20;    ///< |E| cap.
  double decay_delta = 0.001;    ///< Per-use decay increment.
  int decay_reset_interval = 5;  ///< SWAP selections between decay resets.
  /// Consecutive SWAPs without progress before the shortest-path escape
  /// (anti-livelock guard; the published algorithm can oscillate on
  /// symmetric scores).
  int stagnation_threshold = 30;
};

/// The SABRE routing pass.
class SabreRouter {
 public:
  explicit SabreRouter(const arch::Device& device, SabreConfig config = {});

  const SabreConfig& config() const { return config_; }

  /// Routes `circuit` (lowered to <=2-qubit gates) from `initial`.
  core::RoutingResult route(const ir::Circuit& circuit,
                            const layout::Layout& initial) const;

  /// Routes from the identity layout.
  core::RoutingResult route(const ir::Circuit& circuit) const;

  /// SABRE's reverse-traversal initial mapping: starts from a seeded random
  /// layout and refines it with `rounds` forward+backward routing passes.
  /// The passes only move the layout (no routed circuit is built), and the
  /// result equals taking each full route()'s final layout in turn.
  /// The paper's evaluation hands this same mapping to both routers.
  ///
  /// `horizon` bounds the search: when it is positive and the circuit has
  /// more routed two-qubit gates than that, every pass reads only the
  /// prefix ending at the horizon-th such gate, and the result equals
  /// initial_mapping() of that prefix. 0 searches the whole circuit.
  layout::Layout initial_mapping(const ir::Circuit& circuit, int rounds = 3,
                                 std::uint64_t seed = 17,
                                 int horizon = 0) const;

 private:
  arch::Device device_;  ///< Copied: the router owns its device model.
  SabreConfig config_;
};

}  // namespace codar::sabre
