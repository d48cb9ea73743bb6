#include "codar/core/commutativity.hpp"

#include <array>
#include <bit>
#include <cstdint>
#include <memory>
#include <optional>

#include "codar/ir/unitary.hpp"

namespace codar::core {

namespace {

using ir::Gate;
using ir::GateKind;
using ir::Qubit;

bool is_y_axis(GateKind kind) {
  return kind == GateKind::kI || kind == GateKind::kY ||
         kind == GateKind::kRY;
}

/// Control/target structure of the controlled 2-qubit kinds.
bool is_controlled_2q(GateKind kind) {
  switch (kind) {
    case GateKind::kCX:
    case GateKind::kCY:
    case GateKind::kCH:
    case GateKind::kCRZ:
      return true;
    default:
      return false;
  }
}

/// True when the 1-qubit kind commutes with the *target* action of the
/// controlled kind (e.g. X-family with CX's X target, Y-family with CY).
bool commutes_with_target_of(GateKind one_qubit, GateKind controlled) {
  switch (controlled) {
    case GateKind::kCX:
      return ir::is_x_axis(one_qubit);
    case GateKind::kCY:
      return is_y_axis(one_qubit);
    case GateKind::kCRZ:
      return ir::is_diagonal(one_qubit);
    default:
      return false;  // CH target commutes with nothing in our alphabet
  }
}

/// Symbolic fast path. nullopt = not covered, fall back to matrices.
std::optional<bool> symbolic_commute(const Gate& a, const Gate& b) {
  // Identity gates commute with everything.
  if (a.kind() == GateKind::kI || b.kind() == GateKind::kI) return true;

  // Diagonal gates (Z family, CZ, CU1, CRZ, RZZ) all commute.
  if (ir::is_diagonal(a.kind()) && ir::is_diagonal(b.kind())) return true;

  // 1-qubit vs 1-qubit on the same wire.
  if (a.num_qubits() == 1 && b.num_qubits() == 1) {
    if (a.kind() == b.kind() && a.params().size() == b.params().size()) {
      bool same_params = true;
      for (int i = 0; i < a.num_params(); ++i) {
        if (a.param(i) != b.param(i)) same_params = false;
      }
      if (same_params) return true;  // identical gates
    }
    if (ir::is_x_axis(a.kind()) && ir::is_x_axis(b.kind())) return true;
    if (is_y_axis(a.kind()) && is_y_axis(b.kind())) return true;
    return std::nullopt;
  }

  // 1-qubit vs controlled 2-qubit.
  const auto one_vs_controlled = [](const Gate& single,
                                    const Gate& ctrl) -> std::optional<bool> {
    const Qubit q = single.qubit(0);
    if (q == ctrl.qubit(0)) {  // on the control wire
      return ir::is_diagonal(single.kind());
    }
    // on the target wire
    if (commutes_with_target_of(single.kind(), ctrl.kind())) return true;
    return std::nullopt;
  };
  if (a.num_qubits() == 1 && is_controlled_2q(b.kind()))
    return one_vs_controlled(a, b);
  if (b.num_qubits() == 1 && is_controlled_2q(a.kind()))
    return one_vs_controlled(b, a);

  // Controlled vs controlled: sharing only controls or only targets (of the
  // same target axis) commutes; control-meets-target does not.
  if (is_controlled_2q(a.kind()) && is_controlled_2q(b.kind())) {
    const bool share_control = a.qubit(0) == b.qubit(0);
    const bool share_target = a.qubit(1) == b.qubit(1);
    const bool cross_ab = a.qubit(0) == b.qubit(1);  // a's control = b's target
    const bool cross_ba = a.qubit(1) == b.qubit(0);
    if (share_control && !share_target && !cross_ba) return true;
    if (share_target && !share_control && !cross_ab) {
      // Controlled-U pairs with the same target action commute: every
      // control combination applies U-powers, which commute with
      // themselves (and RZ rotations commute regardless of angle).
      return a.kind() == b.kind();
    }
    if ((cross_ab || cross_ba) && !(share_control || share_target)) {
      // Pure control-meets-target chains (e.g. CX a,b then CX b,c) never
      // commute for X/Y/H targets; diagonal-target CRZ is caught above.
      if (a.kind() != GateKind::kCRZ && b.kind() != GateKind::kCRZ)
        return false;
    }
    return std::nullopt;
  }

  return std::nullopt;
}

/// Everything ir::unitaries_commute reads from a pair: both kinds and
/// arities, the parameter bit patterns, and which operand of `a` each
/// operand of `b` equals. Qubit labels themselves do not matter — the
/// joint space is a's operands followed by b's unshared ones.
struct CommuteKey {
  std::uint64_t shape = 0;
  std::array<std::uint64_t, 2 * Gate::kMaxParams> params{};

  friend bool operator==(const CommuteKey&, const CommuteKey&) = default;
};

CommuteKey commute_key(const Gate& a, const Gate& b) {
  CommuteKey key;
  key.shape = static_cast<std::uint64_t>(a.kind()) |
              static_cast<std::uint64_t>(b.kind()) << 8 |
              static_cast<std::uint64_t>(a.num_qubits()) << 16 |
              static_cast<std::uint64_t>(b.num_qubits()) << 20;
  for (int j = 0; j < b.num_qubits(); ++j) {
    std::uint64_t match = Gate::kMaxQubits;  // no operand of a
    for (int i = 0; i < a.num_qubits(); ++i) {
      if (a.qubit(i) == b.qubit(j)) match = static_cast<std::uint64_t>(i);
    }
    key.shape |= match << (24 + 2 * j);
  }
  for (int i = 0; i < a.num_params(); ++i) {
    key.params[static_cast<std::size_t>(i)] =
        std::bit_cast<std::uint64_t>(a.param(i));
  }
  for (int i = 0; i < b.num_params(); ++i) {
    key.params[static_cast<std::size_t>(Gate::kMaxParams + i)] =
        std::bit_cast<std::uint64_t>(b.param(i));
  }
  return key;
}

std::size_t commute_slot(const CommuteKey& key) {
  std::uint64_t h = key.shape;
  for (const std::uint64_t word : key.params) {
    h = (h ^ word) * 0x9e3779b97f4a7c15u;
    h ^= h >> 29;
  }
  return static_cast<std::size_t>(h) & (kCommuteMemoSlots - 1);
}

/// ir::unitaries_commute behind a direct-mapped, thread-local memo: the
/// slot compares the whole key, so a hash collision only evicts. Routing
/// asks the same few thousand pairs hundreds of thousands of times.
bool memoized_unitaries_commute(const Gate& a, const Gate& b) {
  struct Slot {
    CommuteKey key;
    bool filled = false;
    bool commutes = false;
  };
  // Allocated on the first fallback, so threads that never get here (and
  // every thread's TLS block) stay small.
  thread_local std::unique_ptr<Slot[]> table;
  if (!table) table = std::make_unique<Slot[]>(kCommuteMemoSlots);
  const CommuteKey key = commute_key(a, b);
  Slot& slot = table[commute_slot(key)];
  if (!slot.filled || !(slot.key == key)) {
    slot.key = key;
    slot.commutes = ir::unitaries_commute(a, b);
    slot.filled = true;
  }
  return slot.commutes;
}

}  // namespace

bool gates_commute(const Gate& a, const Gate& b) {
  if (!a.overlaps(b)) return true;
  const bool a_unitary = ir::is_unitary(a.kind());
  const bool b_unitary = ir::is_unitary(b.kind());
  // Barriers are ordering fences and measurements collapse state: neither
  // may move past an overlapping gate.
  if (!a_unitary || !b_unitary) return false;
  if (const auto fast = symbolic_commute(a, b)) return *fast;
  return memoized_unitaries_commute(a, b);
}

}  // namespace codar::core
