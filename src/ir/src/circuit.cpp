#include "codar/ir/circuit.hpp"

#include <algorithm>

#include "codar/common/fnv.hpp"

namespace codar::ir {

Circuit::Circuit(int num_qubits, std::string name)
    : num_qubits_(num_qubits), name_(std::move(name)) {
  CODAR_EXPECTS(num_qubits >= 0);
}

Circuit::Circuit(int num_qubits, std::string name, std::vector<Gate> gates)
    : Circuit(num_qubits, std::move(name)) {
  for (const Gate& g : gates) {
    for (const Qubit q : g.qubits()) {
      CODAR_EXPECTS(q >= 0 && q < num_qubits_);
    }
  }
  gates_ = std::move(gates);
}

void Circuit::add(const Gate& g) {
  for (const Qubit q : g.qubits()) {
    CODAR_EXPECTS(q >= 0 && q < num_qubits_);
  }
  gates_.push_back(g);
}

void Circuit::append(const Circuit& other) {
  CODAR_EXPECTS(other.num_qubits() <= num_qubits_);
  for (const Gate& g : other.gates()) add(g);
}

std::size_t Circuit::barrier_count() const {
  return static_cast<std::size_t>(
      std::count_if(gates_.begin(), gates_.end(), [](const Gate& g) {
        return g.kind() == GateKind::kBarrier;
      }));
}

int Circuit::used_qubit_count() const {
  Qubit max_q = -1;
  for (const Gate& g : gates_) {
    for (const Qubit q : g.qubits()) max_q = std::max(max_q, q);
  }
  return static_cast<int>(max_q + 1);
}

Circuit Circuit::reversed() const {
  Circuit rev(num_qubits_, name_ + "_reversed");
  rev.gates_.assign(gates_.rbegin(), gates_.rend());
  return rev;
}

Circuit Circuit::remapped(std::span<const Qubit> remap,
                          int new_num_qubits) const {
  CODAR_EXPECTS(remap.size() >= static_cast<std::size_t>(num_qubits_));
  Circuit out(new_num_qubits, name_);
  for (const Gate& g : gates_) {
    out.add(g.remapped([&](Qubit q) {
      CODAR_EXPECTS(static_cast<std::size_t>(q) < remap.size());
      return remap[static_cast<std::size_t>(q)];
    }));
  }
  return out;
}

std::uint64_t Circuit::fingerprint() const {
  common::Fnv1a h;
  h.u64(1);  // fingerprint schema version
  h.i64(num_qubits_);
  h.u64(gates_.size());
  for (const Gate& g : gates_) {
    h.byte(static_cast<std::uint8_t>(g.kind()));
    h.byte(static_cast<std::uint8_t>(g.num_qubits()));
    for (const Qubit q : g.qubits()) h.i64(q);
    h.byte(static_cast<std::uint8_t>(g.num_params()));
    for (const double p : g.params()) h.f64(p);
  }
  return h.value();
}

}  // namespace codar::ir
