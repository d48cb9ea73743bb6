#include "codar/core/front.hpp"

#include <algorithm>

#include "codar/core/commutativity.hpp"

namespace codar::core {

using ir::Gate;
using ir::Qubit;

CommutativeFront::CommutativeFront(std::span<const Gate> gates, int window,
                                   bool use_commutativity)
    : gates_(gates),
      window_cap_(window <= 0 ? gates.size()
                              : static_cast<std::size_t>(window)),
      use_commutativity_(use_commutativity),
      alive_(gates.size(), 1),
      live_count_(gates.size()),
      slot_offset_(gates.size()),
      parked_slots_(gates.size(), 0) {
  // Wire lists: one slot per gate operand, appended in program order.
  std::size_t num_slots = 0;
  for (const Gate& g : gates) num_slots += g.qubits().size();
  slots_.reserve(num_slots);
  std::vector<int> wire_tail;
  for (std::size_t i = 0; i < gates.size(); ++i) {
    slot_offset_[i] = static_cast<int>(slots_.size());
    for (const Qubit q : gates[i].qubits()) {
      const auto wire = static_cast<std::size_t>(q);
      if (wire >= wire_tail.size()) wire_tail.resize(wire + 1, -1);
      const int s = static_cast<int>(slots_.size());
      const int prev = wire_tail[wire];
      if (prev >= 0) slots_[static_cast<std::size_t>(prev)].next = s;
      slots_.push_back({.gate = static_cast<int>(i), .prev = prev});
      wire_tail[wire] = s;
    }
  }

  front_.reserve(std::min(window_cap_, gates.size()));
  while (window_size_ < window_cap_ && next_admit_ < gates_.size()) {
    admit_next();
  }
}

bool CommutativeFront::blocks(int h, int g) const {
  return !use_commutativity_ ||
         !gates_commute(gates_[static_cast<std::size_t>(h)],
                        gates_[static_cast<std::size_t>(g)]);
}

bool CommutativeFront::park(int s, int from) {
  Slot& slot = slots_[static_cast<std::size_t>(s)];
  for (int h = from; h >= 0; h = slots_[static_cast<std::size_t>(h)].prev) {
    Slot& blocker = slots_[static_cast<std::size_t>(h)];
    if (blocks(blocker.gate, slot.gate)) {
      slot.next_parked = blocker.parked;
      blocker.parked = s;
      return true;
    }
  }
  return false;
}

void CommutativeFront::admit_next() {
  const int gi = static_cast<int>(next_admit_);
  const int first = slot_offset_[next_admit_];
  int parked = 0;
  for (int s = first; s < first + gates_[next_admit_].num_qubits(); ++s) {
    if (park(s, slots_[static_cast<std::size_t>(s)].prev)) ++parked;
  }
  parked_slots_[next_admit_] = parked;
  ++window_size_;
  ++next_admit_;
  if (parked == 0) front_insert(gi);
}

void CommutativeFront::retire(int gate_index) {
  front_erase(gate_index);  // rejects any gate outside the front
  const auto gi = static_cast<std::size_t>(gate_index);
  const int first = slot_offset_[gi];
  for (int t = first; t < first + gates_[gi].num_qubits(); ++t) {
    const Slot& slot = slots_[static_cast<std::size_t>(t)];
    // Each walk parked here resumes past this gate. It never parks on this
    // slot again, so the list stays intact while others grow.
    for (int s = slot.parked; s >= 0;) {
      const int next = slots_[static_cast<std::size_t>(s)].next_parked;
      if (!park(s, slot.prev)) {
        const int owner = slots_[static_cast<std::size_t>(s)].gate;
        if (--parked_slots_[static_cast<std::size_t>(owner)] == 0) {
          front_insert(owner);
        }
      }
      s = next;
    }
    if (slot.prev >= 0) {
      slots_[static_cast<std::size_t>(slot.prev)].next = slot.next;
    }
    if (slot.next >= 0) {
      slots_[static_cast<std::size_t>(slot.next)].prev = slot.prev;
    }
  }

  alive_[gi] = 0;
  --live_count_;
  --window_size_;

  // Slide the window boundary: admit gates until the window is full again.
  while (window_size_ < window_cap_ && next_admit_ < gates_.size()) {
    admit_next();
  }
}

void CommutativeFront::front_insert(int gate_index) {
  front_.insert(std::lower_bound(front_.begin(), front_.end(), gate_index),
                gate_index);
}

void CommutativeFront::front_erase(int gate_index) {
  const auto it =
      std::lower_bound(front_.begin(), front_.end(), gate_index);
  CODAR_EXPECTS(it != front_.end() && *it == gate_index);
  front_.erase(it);
}

}  // namespace codar::core
