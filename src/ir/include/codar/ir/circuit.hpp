#pragma once

// Circuit container: an ordered gate sequence over a fixed-size qubit
// register. The order of the sequence is the program order; routers and
// schedulers are free to exploit commutation, but the IR itself stays a
// plain sequence (matching the paper's "gate sequence I").

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "codar/ir/gate.hpp"

namespace codar::ir {

/// An ordered sequence of gates over `num_qubits()` qubits.
class Circuit {
 public:
  /// Creates an empty circuit over `num_qubits` qubits (may be 0 only for a
  /// default-constructed placeholder).
  explicit Circuit(int num_qubits, std::string name = "");

  /// Creates a circuit holding `gates` in order; every gate's qubits must
  /// lie in [0, num_qubits). Takes the vector over without copying it.
  Circuit(int num_qubits, std::string name, std::vector<Gate> gates);

  int num_qubits() const { return num_qubits_; }
  const std::string& name() const { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }

  std::size_t size() const { return gates_.size(); }
  bool empty() const { return gates_.empty(); }
  const Gate& gate(std::size_t i) const {
    CODAR_EXPECTS(i < gates_.size());
    return gates_[i];
  }
  std::span<const Gate> gates() const { return gates_; }

  /// Appends a gate; all its qubits must lie in [0, num_qubits).
  void add(const Gate& g);

  /// Appends every gate of `other` (same or smaller register width).
  void append(const Circuit& other);

  /// Convenience append helpers mirroring the Gate factories.
  void i(Qubit q) { add(Gate::i(q)); }
  void x(Qubit q) { add(Gate::x(q)); }
  void y(Qubit q) { add(Gate::y(q)); }
  void z(Qubit q) { add(Gate::z(q)); }
  void h(Qubit q) { add(Gate::h(q)); }
  void s(Qubit q) { add(Gate::s(q)); }
  void sdg(Qubit q) { add(Gate::sdg(q)); }
  void t(Qubit q) { add(Gate::t(q)); }
  void tdg(Qubit q) { add(Gate::tdg(q)); }
  void sx(Qubit q) { add(Gate::sx(q)); }
  void rx(Qubit q, double theta) { add(Gate::rx(q, theta)); }
  void ry(Qubit q, double theta) { add(Gate::ry(q, theta)); }
  void rz(Qubit q, double theta) { add(Gate::rz(q, theta)); }
  void u1(Qubit q, double lambda) { add(Gate::u1(q, lambda)); }
  void u2(Qubit q, double phi, double lambda) { add(Gate::u2(q, phi, lambda)); }
  void u3(Qubit q, double theta, double phi, double lambda) {
    add(Gate::u3(q, theta, phi, lambda));
  }
  void cx(Qubit c, Qubit t2) { add(Gate::cx(c, t2)); }
  void cz(Qubit a, Qubit b) { add(Gate::cz(a, b)); }
  void cy(Qubit c, Qubit t2) { add(Gate::cy(c, t2)); }
  void ch(Qubit c, Qubit t2) { add(Gate::ch(c, t2)); }
  void crz(Qubit c, Qubit t2, double theta) { add(Gate::crz(c, t2, theta)); }
  void cu1(Qubit a, Qubit b, double lambda) { add(Gate::cu1(a, b, lambda)); }
  void rzz(Qubit a, Qubit b, double theta) { add(Gate::rzz(a, b, theta)); }
  void swap(Qubit a, Qubit b) { add(Gate::swap(a, b)); }
  void ccx(Qubit c1, Qubit c2, Qubit t2) { add(Gate::ccx(c1, c2, t2)); }
  void measure(Qubit q) { add(Gate::measure(q)); }
  void barrier(std::span<const Qubit> qs) { add(Gate::barrier(qs)); }

  /// Number of kBarrier fences.
  std::size_t barrier_count() const;
  /// Highest qubit index actually used plus one (<= num_qubits()).
  int used_qubit_count() const;

  /// Gates in reverse sequence order over the same register (used by the
  /// SABRE-style reverse-traversal initial mapping; gate parameters are kept
  /// as-is because routing only depends on operand structure).
  Circuit reversed() const;

  /// Returns a copy with qubit q replaced by remap[q] everywhere, over a
  /// register of `new_num_qubits` qubits.
  Circuit remapped(std::span<const Qubit> remap, int new_num_qubits) const;

  /// Content-addressed 64-bit fingerprint over register width and the gate
  /// sequence (kind, operands, parameter bit patterns) in program order.
  /// The display name is deliberately excluded, so structurally identical
  /// circuits fingerprint identically. Deterministic across runs, platforms
  /// and thread counts (pure arithmetic over the stored data — no pointers
  /// or hash-table iteration order involved).
  std::uint64_t fingerprint() const;

 private:
  int num_qubits_;
  std::string name_;
  std::vector<Gate> gates_;
};

}  // namespace codar::ir
