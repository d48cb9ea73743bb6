#include "codar/ir/decompose.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "codar/sim/statevector.hpp"

namespace codar::ir {
namespace {

/// Exact state equality between two circuits over the same register.
void expect_equivalent(const Circuit& a, const Circuit& b, double tol = 1e-9) {
  ASSERT_EQ(a.num_qubits(), b.num_qubits());
  sim::Statevector sa(a.num_qubits());
  sa.apply(a);
  sim::Statevector sb(b.num_qubits());
  sb.apply(b);
  for (std::size_t i = 0; i < sa.dim(); ++i) {
    EXPECT_NEAR(std::abs(sa.amp(i) - sb.amp(i)), 0.0, tol) << "basis " << i;
  }
}

TEST(DecomposeToffoli, PreservesSemanticsOnAllBasisInputs) {
  for (int input = 0; input < 8; ++input) {
    Circuit c(3);
    for (Qubit q = 0; q < 3; ++q) {
      if ((input >> q) & 1) c.x(q);
    }
    c.ccx(0, 1, 2);
    const Circuit lowered = decompose_toffoli(c);
    expect_equivalent(c, lowered);
  }
}

TEST(DecomposeToffoli, PreservesSemanticsInSuperposition) {
  Circuit c(3);
  c.h(0);
  c.h(1);
  c.t(2);
  c.ccx(0, 1, 2);
  c.h(2);
  expect_equivalent(c, decompose_toffoli(c));
}

TEST(DecomposeToffoli, RemovesAllToffolis) {
  Circuit c(4);
  c.ccx(0, 1, 2);
  c.ccx(1, 2, 3);
  const Circuit lowered = decompose_toffoli(c);
  EXPECT_TRUE(is_two_qubit_lowered(lowered));
  for (const Gate& g : lowered.gates()) {
    EXPECT_NE(g.kind(), GateKind::kCCX);
  }
}

TEST(DecomposeToffoli, LeavesOtherGatesUntouched) {
  Circuit c(3);
  c.h(0);
  c.cx(0, 1);
  c.measure(2);
  const Circuit lowered = decompose_toffoli(c);
  ASSERT_EQ(lowered.size(), 3u);
  EXPECT_EQ(lowered.gate(0).kind(), GateKind::kH);
  EXPECT_EQ(lowered.gate(2).kind(), GateKind::kMeasure);
}

TEST(DecomposeSwaps, ThreeCxEquivalence) {
  Circuit c(2);
  c.h(0);
  c.t(1);
  c.swap(0, 1);
  const Circuit lowered = decompose_swaps(c);
  EXPECT_EQ(std::ranges::count(lowered.gates(), GateKind::kSwap, &Gate::kind),
            0);
  EXPECT_EQ(lowered.size(), 5u);  // h, t, 3x cx
  expect_equivalent(c, lowered);
}

TEST(IsTwoQubitLowered, DetectsToffoli) {
  Circuit c(3);
  c.cx(0, 1);
  EXPECT_TRUE(is_two_qubit_lowered(c));
  c.ccx(0, 1, 2);
  EXPECT_FALSE(is_two_qubit_lowered(c));
}

TEST(IsTwoQubitLowered, IgnoresWideBarriers) {
  Circuit c(3);
  const Qubit qs[] = {0, 1, 2};
  c.barrier(qs);
  EXPECT_TRUE(is_two_qubit_lowered(c));
}

}  // namespace
}  // namespace codar::ir
