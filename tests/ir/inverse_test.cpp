#include "codar/ir/inverse.hpp"

#include <gtest/gtest.h>

#include "codar/ir/peephole.hpp"
#include "codar/ir/unitary.hpp"
#include "codar/sim/statevector.hpp"
#include "codar/workloads/generators.hpp"

namespace codar::ir {
namespace {

/// Every invertible gate with representative parameters.
std::vector<Gate> invertible_gates() {
  return {
      Gate::i(0),           Gate::x(0),
      Gate::y(0),           Gate::z(0),
      Gate::h(0),           Gate::s(0),
      Gate::sdg(0),         Gate::t(0),
      Gate::tdg(0),         Gate::sx(0),
      Gate::rx(0, 0.7),     Gate::ry(0, -1.3),
      Gate::rz(0, 2.1),     Gate::u1(0, 0.4),
      Gate::u2(0, 0.3, 1.1), Gate::u3(0, 0.5, 0.6, 0.7),
      Gate::cx(0, 1),       Gate::cz(0, 1),
      Gate::cy(0, 1),       Gate::ch(0, 1),
      Gate::crz(0, 1, 0.9), Gate::cu1(0, 1, 1.2),
      Gate::rzz(0, 1, 0.8), Gate::swap(0, 1),
      Gate::ccx(0, 1, 2),
  };
}

TEST(Inverse, EveryGateTimesItsInverseIsIdentityUpToPhase) {
  for (const Gate& g : invertible_gates()) {
    const Gate inv = inverse(g);
    const Qubit joint[] = {0, 1, 2};
    const Matrix u = embed(g, joint);
    const Matrix ui = embed(inv, joint);
    const Matrix product = ui * u;
    // product must be a scalar multiple of identity (phase only).
    const Complex phase = product.at(0, 0);
    EXPECT_NEAR(std::abs(phase), 1.0, 1e-9) << g.to_string();
    Matrix scaled = Matrix::identity(8);
    for (std::size_t i = 0; i < 8; ++i) scaled.at(i, i) = phase;
    EXPECT_LT((product - scaled).max_abs(), 1e-9) << g.to_string();
  }
}

TEST(Inverse, SelfInverseKindsMapToThemselves) {
  EXPECT_EQ(inverse(Gate::h(3)), Gate::h(3));
  EXPECT_EQ(inverse(Gate::cx(1, 2)), Gate::cx(1, 2));
  EXPECT_EQ(inverse(Gate::ccx(0, 1, 2)), Gate::ccx(0, 1, 2));
}

TEST(Inverse, AdjointPairsSwap) {
  EXPECT_EQ(inverse(Gate::s(0)).kind(), GateKind::kSdg);
  EXPECT_EQ(inverse(Gate::sdg(0)).kind(), GateKind::kS);
  EXPECT_EQ(inverse(Gate::t(0)).kind(), GateKind::kTdg);
  EXPECT_EQ(inverse(Gate::tdg(0)).kind(), GateKind::kT);
}

TEST(Inverse, RotationsNegate) {
  EXPECT_DOUBLE_EQ(inverse(Gate::rz(0, 0.5)).param(0), -0.5);
  EXPECT_DOUBLE_EQ(inverse(Gate::cu1(0, 1, 1.5)).param(0), -1.5);
}

TEST(Inverse, MeasureAndBarrierThrow) {
  EXPECT_THROW(inverse(Gate::measure(0)), ContractViolation);
  const Qubit qs[] = {0, 1};
  EXPECT_THROW(inverse(Gate::barrier(qs)), ContractViolation);
  Circuit c(1);
  c.measure(0);
  EXPECT_THROW(inverse(c), ContractViolation);
}

TEST(Inverse, CircuitInverseReversesOrder) {
  Circuit c(2);
  c.h(0);
  c.cx(0, 1);
  c.t(1);
  const Circuit inv = inverse(c);
  ASSERT_EQ(inv.size(), 3u);
  EXPECT_EQ(inv.gate(0).kind(), GateKind::kTdg);
  EXPECT_EQ(inv.gate(1).kind(), GateKind::kCX);
  EXPECT_EQ(inv.gate(2).kind(), GateKind::kH);
}

TEST(Mirror, ReturnsToGroundState) {
  for (const auto& circuit :
       {workloads::qft(5), workloads::w_state(4),
        workloads::bernstein_vazirani(4, 0b0110) /* has measures... */}) {
    // Strip measures for mirroring.
    Circuit unitary_only(circuit.num_qubits(), circuit.name());
    for (const Gate& g : circuit.gates()) {
      if (is_unitary(g.kind())) unitary_only.add(g);
    }
    const Circuit m = mirror(unitary_only);
    sim::Statevector psi(m.num_qubits());
    psi.apply(m);
    EXPECT_NEAR(std::abs(psi.amp(0)), 1.0, 1e-9) << circuit.name();
  }
}

TEST(Mirror, RandomCircuitMirrorIsIdentity) {
  const Circuit c = workloads::random_circuit(5, 120, 0.4, 77);
  const Circuit m = mirror(c);
  sim::Statevector psi(5);
  psi.apply(m);
  EXPECT_NEAR(std::abs(psi.amp(0)), 1.0, 1e-9);
}

TEST(Mirror, PeepholeCollapsesMirrorCompletely) {
  // The optimizer should eat the entire mirrored random circuit (every
  // pair cancels inward), a strong cross-check of both passes.
  Circuit c(4);
  c.h(0);
  c.cx(0, 1);
  c.t(1);
  c.rz(2, 0.8);
  c.cz(2, 3);
  const Circuit m = mirror(c);
  const Circuit opt = peephole_optimize(m);
  EXPECT_TRUE(opt.empty()) << "left " << opt.size() << " gates";
}

}  // namespace
}  // namespace codar::ir
