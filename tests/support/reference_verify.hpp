#pragma once

// The verifier's matcher as it was before the one-wire lookup, preserved
// as a differential-test oracle: FrontMatcher::match_and_remove scans the
// whole pending sequence from its first alive gate for the first alive
// gate equal to the target that is in the commutative front. Slow by
// design; tests/core/verify_differential_test.cpp checks that
// core::verify_routing returns the same verdict and message on routed and
// mutated circuits.

#include <sstream>
#include <string>
#include <vector>

#include "codar/arch/coupling_graph.hpp"
#include "codar/core/commutativity.hpp"
#include "codar/core/routing_result.hpp"
#include "codar/core/verify.hpp"

namespace codar::testing {
namespace reference_verify_detail {

using ir::Gate;
using ir::GateKind;
using ir::Qubit;

inline std::string describe(const Gate& g) { return g.to_string(); }

/// Incremental matcher: maintains the pending original sequence with
/// per-wire occurrence lists and lazy deletion, so that matching each
/// routed gate against the commutative front costs roughly the number of
/// still-alive gates ahead of the match point (near-constant for router
/// outputs, which retire gates close to program order).
class FrontMatcher {
 public:
  explicit FrontMatcher(const ir::Circuit& original) {
    gates_.assign(original.gates().begin(), original.gates().end());
    alive_.assign(gates_.size(), true);
    wire_lists_.resize(static_cast<std::size_t>(original.num_qubits()));
    wire_cursor_.assign(wire_lists_.size(), 0);
    for (std::size_t i = 0; i < gates_.size(); ++i) {
      for (const Qubit q : gates_[i].qubits()) {
        wire_lists_[static_cast<std::size_t>(q)].push_back(i);
      }
    }
  }

  std::size_t remaining() const { return remaining_; }

  const Gate& gate(std::size_t i) const { return gates_[i]; }
  std::size_t first_alive() {
    while (head_ < gates_.size() && !alive_[head_]) ++head_;
    return head_;
  }

  /// Finds the first alive gate equal to `target` that commutes with every
  /// earlier alive gate sharing a wire (i.e. is in the commutative front),
  /// removes it, and returns true.
  bool match_and_remove(const Gate& target) {
    for (std::size_t i = first_alive(); i < gates_.size(); ++i) {
      if (!alive_[i] || !(gates_[i] == target)) continue;
      if (is_front(i)) {
        remove(i);
        return true;
      }
    }
    return false;
  }

 private:
  bool is_front(std::size_t i) {
    for (const Qubit q : gates_[i].qubits()) {
      auto& list = wire_lists_[static_cast<std::size_t>(q)];
      std::size_t& cursor = wire_cursor_[static_cast<std::size_t>(q)];
      while (cursor < list.size() && !alive_[list[cursor]]) ++cursor;
      for (std::size_t k = cursor; k < list.size() && list[k] < i; ++k) {
        if (!alive_[list[k]]) continue;
        if (!core::gates_commute(gates_[list[k]], gates_[i])) return false;
      }
    }
    return true;
  }

  void remove(std::size_t i) {
    alive_[i] = false;
    --remaining_;
  }

  std::vector<Gate> gates_;
  std::vector<bool> alive_;
  std::vector<std::vector<std::size_t>> wire_lists_;
  std::vector<std::size_t> wire_cursor_;
  std::size_t head_ = 0;
  std::size_t remaining_ = 0;

 public:
  void init_remaining() { remaining_ = gates_.size(); }
};

}  // namespace reference_verify_detail

inline core::VerifyOutcome reference_verify_routing(
    const ir::Circuit& original, const core::RoutingResult& result,
    const arch::CouplingGraph& graph) {
  using ir::Gate;
  using ir::GateKind;
  using ir::Qubit;
  using reference_verify_detail::describe;
  using reference_verify_detail::FrontMatcher;
  // 1. Connectivity compliance.
  for (const Gate& g : result.circuit.gates()) {
    if (g.num_qubits() == 2 && g.kind() != GateKind::kBarrier) {
      if (!graph.connected(g.qubit(0), g.qubit(1))) {
        return core::VerifyOutcome::fail(
            "gate violates coupling constraint: " + describe(g));
      }
    }
  }

  // 2 + 3. Replay SWAPs, map every non-SWAP gate back to logical operands,
  // and match it against the commutative front of the remaining original
  // sequence.
  layout::Layout layout = result.initial;
  FrontMatcher matcher(original);
  matcher.init_remaining();

  for (const Gate& g : result.circuit.gates()) {
    if (g.kind() == GateKind::kSwap) {
      layout.swap_physical(g.qubit(0), g.qubit(1));
      continue;
    }
    bool unmapped = false;
    const Gate logical_gate = g.remapped([&](Qubit phys) {
      const Qubit lq = layout.logical(phys);
      if (lq < 0) unmapped = true;
      return lq < 0 ? Qubit{0} : lq;
    });
    if (unmapped) {
      return core::VerifyOutcome::fail(
          "routed gate touches a physical qubit holding no logical qubit: " +
          describe(g));
    }
    if (!matcher.match_and_remove(logical_gate)) {
      return core::VerifyOutcome::fail(
          "routed gate is not a commutative-front gate of the remaining "
          "original sequence: " +
          describe(logical_gate));
    }
  }

  if (matcher.remaining() != 0) {
    std::ostringstream oss;
    oss << "routed circuit dropped " << matcher.remaining()
        << " original gate(s)";
    return core::VerifyOutcome::fail(oss.str());
  }

  if (layout != result.final) {
    return core::VerifyOutcome::fail(
        "final layout does not match the SWAP replay of the routed circuit");
  }
  return core::VerifyOutcome::ok();
}

}  // namespace codar::testing
