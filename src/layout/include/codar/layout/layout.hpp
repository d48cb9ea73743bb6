#pragma once

// The maQAM dynamic structure π: the logical→physical qubit mapping that
// routers mutate by applying SWAPs. Physical registers may be wider than
// logical ones (N >= n); unoccupied physical qubits map back to -1.

#include <vector>

#include "codar/ir/gate.hpp"

namespace codar::layout {

using ir::Qubit;

/// Bijective-on-its-domain mapping π: {0..n-1} → {0..N-1} with inverse
/// lookup. Kept consistent under SWAPs of physical qubits.
class Layout {
 public:
  /// π(q) = q for every logical qubit (requires N >= n).
  Layout(int num_logical, int num_physical);

  /// Builds from an explicit logical→physical vector (must be injective,
  /// all entries in [0, num_physical)).
  static Layout from_l2p(const std::vector<Qubit>& l2p, int num_physical);

  int num_logical() const { return static_cast<int>(l2p_.size()); }
  int num_physical() const { return static_cast<int>(p2l_.size()); }

  /// π(logical) — always defined.
  Qubit physical(Qubit logical) const {
    CODAR_EXPECTS(logical >= 0 && logical < num_logical());
    return l2p_[static_cast<std::size_t>(logical)];
  }
  /// π⁻¹(physical) — -1 when no logical qubit sits there.
  Qubit logical(Qubit physical) const {
    CODAR_EXPECTS(physical >= 0 && physical < num_physical());
    return p2l_[static_cast<std::size_t>(physical)];
  }

  /// Applies a SWAP between two *physical* qubits (either or both may be
  /// unoccupied; the paper's routing swaps physical qubits, not logical).
  void swap_physical(Qubit a, Qubit b);

  /// The logical→physical vector (for serialization / remapping circuits).
  const std::vector<Qubit>& l2p() const { return l2p_; }

  friend bool operator==(const Layout&, const Layout&) = default;

 private:
  Layout() = default;
  std::vector<Qubit> l2p_;
  std::vector<Qubit> p2l_;
};

/// Uniformly random injective mapping (seeded, deterministic).
Layout random_layout(int num_logical, int num_physical, std::uint64_t seed);

}  // namespace codar::layout
