#pragma once

// The maQAM gate-duration map τ: G → N. Durations are integer multiples of
// the quantum clock cycle τ_u (paper §III-B). Presets encode the technology
// survey of Table I.

#include <array>
#include <cstdint>

#include "codar/ir/gate.hpp"

namespace codar::arch {

/// Duration / time values in quantum clock cycles.
using Duration = std::int64_t;

/// Maps every GateKind to its duration in cycles. Value type; routers copy
/// it freely.
class DurationMap {
 public:
  /// Defaults: every unitary 1-qubit gate 1 cycle, every 2-qubit gate
  /// 2 cycles, SWAP 6 (three CX), CCX 12, measure 1, barrier 0 — the
  /// superconducting profile the paper's evaluation uses.
  DurationMap();

  Duration of(ir::GateKind kind) const {
    return table_[static_cast<std::size_t>(kind)];
  }
  Duration of(const ir::Gate& g) const { return of(g.kind()); }

  /// Overrides a single kind. Durations must be non-negative.
  void set(ir::GateKind kind, Duration d);
  /// Overrides every 1-qubit unitary kind.
  void set_all_single_qubit(Duration d);
  /// Overrides every 2-qubit kind except SWAP.
  void set_all_two_qubit(Duration d);

  /// Content-addressed 64-bit fingerprint over the full duration table in
  /// GateKind enum order. Deterministic across runs.
  std::uint64_t fingerprint() const;

  // -- Technology presets (Table I) --

  /// Superconducting: 2-qubit ≈ 2× 1-qubit (IBM Q devices). 1q=1, 2q=2,
  /// SWAP=6. This is the profile used for the paper's Fig. 8.
  static DurationMap superconducting();
  /// Ion trap: 1q 20µs vs 2q 250µs → 2-qubit ≈ 12× 1-qubit. 1q=1, 2q=12,
  /// SWAP=36.
  static DurationMap ion_trap();
  /// Neutral atom: 2-qubit (~10µs) is *not* slower than 1-qubit (1–20µs);
  /// modeled as 1q=2, 2q=1, SWAP=3.
  static DurationMap neutral_atom();
  /// Duration-blind profile: every gate 1 cycle, SWAP 3 (still three CX).
  /// Used by the duration-awareness ablation.
  static DurationMap uniform();

 private:
  std::array<Duration, ir::kGateKindCount> table_{};
};

}  // namespace codar::arch
