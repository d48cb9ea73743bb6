#include "codar/workloads/generators.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "codar/ir/decompose.hpp"
#include "codar/sim/statevector.hpp"

namespace codar::workloads {
namespace {

using ir::GateKind;
using sim::Statevector;

/// Probability that the first `bits` qubits read exactly `value`, summed
/// over all other qubits.
double register_probability(const Statevector& psi, int bits,
                            std::size_t value) {
  const std::size_t mask = (std::size_t{1} << bits) - 1;
  double p = 0.0;
  for (std::size_t i = 0; i < psi.dim(); ++i) {
    if ((i & mask) == value) p += std::norm(psi.amp(i));
  }
  return p;
}

TEST(Qft, UniformFromZeroAndUnitary) {
  const Circuit c = qft(5);
  Statevector psi(5);
  psi.apply(c);
  EXPECT_NEAR(psi.norm_squared(), 1.0, 1e-10);
  for (std::size_t i = 0; i < psi.dim(); ++i) {
    EXPECT_NEAR(std::abs(psi.amp(i)), 1.0 / std::sqrt(32.0), 1e-10);
  }
}

TEST(Qft, InverseUndoesQft) {
  Circuit prep(4);
  prep.x(1);
  prep.x(3);  // basis state |1010...>
  Statevector psi(4);
  psi.apply(prep);
  psi.apply(qft(4));
  psi.apply(inverse_qft(4));
  EXPECT_NEAR(std::abs(psi.amp(0b1010)), 1.0, 1e-9);
}

TEST(Qft, FinalSwapsReverseBits) {
  const Circuit c = qft(4, /*with_final_swaps=*/true);
  std::size_t swaps = 0;
  for (const ir::Gate& g : c.gates()) {
    if (g.kind() == GateKind::kSwap) ++swaps;
  }
  EXPECT_EQ(swaps, 2u);
}

TEST(Ghz, EqualSuperpositionOfAllZerosAllOnes) {
  Statevector psi(4);
  psi.apply(ghz(4));
  EXPECT_NEAR(std::abs(psi.amp(0)), 1.0 / std::sqrt(2.0), 1e-10);
  EXPECT_NEAR(std::abs(psi.amp(15)), 1.0 / std::sqrt(2.0), 1e-10);
}

TEST(WState, UniformSingleExcitationAmplitudes) {
  const int n = 5;
  Statevector psi(n);
  psi.apply(w_state(n));
  const double expected = 1.0 / std::sqrt(static_cast<double>(n));
  for (int q = 0; q < n; ++q) {
    const std::size_t basis = std::size_t{1} << q;
    EXPECT_NEAR(std::abs(psi.amp(basis)), expected, 1e-9) << "qubit " << q;
  }
  EXPECT_NEAR(std::abs(psi.amp(0)), 0.0, 1e-9);
  EXPECT_NEAR(psi.norm_squared(), 1.0, 1e-9);
}

TEST(BernsteinVazirani, RecoversSecretDeterministically) {
  const std::uint64_t secret = 0b1101;
  const Circuit c = bernstein_vazirani(4, secret);
  EXPECT_EQ(c.num_qubits(), 5);
  Statevector psi(5);
  psi.apply(c);
  for (int q = 0; q < 4; ++q) {
    const double expected = ((secret >> q) & 1U) ? 1.0 : 0.0;
    EXPECT_NEAR(psi.probability_one(q), expected, 1e-9) << "qubit " << q;
  }
}

TEST(DeutschJozsa, ConstantGivesAllZeros) {
  const Circuit c = deutsch_jozsa(4, /*balanced=*/false);
  Statevector psi(5);
  psi.apply(c);
  EXPECT_NEAR(register_probability(psi, 4, 0), 1.0, 1e-9);
}

TEST(DeutschJozsa, BalancedNeverGivesAllZeros) {
  const Circuit c = deutsch_jozsa(4, /*balanced=*/true);
  Statevector psi(5);
  psi.apply(c);
  EXPECT_NEAR(register_probability(psi, 4, 0), 0.0, 1e-9);
}

TEST(Simon, MeasurementsAreOrthogonalToSecret) {
  const int n = 3;
  const std::uint64_t secret = 0b101;
  const Circuit c = simon(n, secret);
  EXPECT_EQ(c.num_qubits(), 2 * n);
  Statevector psi(2 * n);
  psi.apply(c);
  // Every input-register outcome y with nonzero probability satisfies
  // y . s = 0 (mod 2) — the Simon promise.
  const std::size_t mask = (std::size_t{1} << n) - 1;
  for (std::size_t i = 0; i < psi.dim(); ++i) {
    if (std::norm(psi.amp(i)) < 1e-12) continue;
    const std::size_t y = i & mask;
    EXPECT_EQ(std::popcount(y & secret) % 2, 0)
        << "outcome y=" << y << " not orthogonal to s";
  }
}

TEST(Grover, AmplifiesMarkedState) {
  const int n = 3;
  const Circuit c = grover(n, 1);
  Statevector psi(c.num_qubits());
  psi.apply(ir::decompose_toffoli(c));
  // One iteration on 3 qubits boosts |111> to ~0.78 probability.
  const double p = register_probability(psi, n, 0b111);
  EXPECT_GT(p, 0.7);
  // Unmarked states are suppressed below uniform.
  EXPECT_LT(register_probability(psi, n, 0b010), 1.0 / 8.0);
}

TEST(Grover, AncillasAreRestored) {
  const int n = 5;  // uses n - 3 = 2 ancillas
  const Circuit c = grover(n, 1);
  EXPECT_EQ(c.num_qubits(), n + 2);
  Statevector psi(c.num_qubits());
  psi.apply(ir::decompose_toffoli(c));
  for (int anc = n; anc < c.num_qubits(); ++anc) {
    EXPECT_NEAR(psi.probability_one(anc), 0.0, 1e-9) << "ancilla " << anc;
  }
}

TEST(CuccaroAdder, AddsOnBasisStates) {
  const int bits = 3;
  for (const auto& [a, b] : std::vector<std::pair<int, int>>{
           {0, 0}, {1, 0}, {3, 5}, {7, 7}, {2, 6}, {5, 4}}) {
    Circuit prep(2 * bits + 2, "prep");
    for (int i = 0; i < bits; ++i) {
      if ((a >> i) & 1) prep.x(1 + 2 * i);
      if ((b >> i) & 1) prep.x(2 + 2 * i);
    }
    prep.append(cuccaro_adder(bits));
    Statevector psi(2 * bits + 2);
    psi.apply(prep);
    const int sum = a + b;
    // Decode: b_i at qubit 2+2i, carry-out at the last qubit, and the a
    // register must be restored.
    for (int i = 0; i < bits; ++i) {
      EXPECT_NEAR(psi.probability_one(2 + 2 * i),
                  static_cast<double>((sum >> i) & 1), 1e-9)
          << "a=" << a << " b=" << b << " bit " << i;
      EXPECT_NEAR(psi.probability_one(1 + 2 * i),
                  static_cast<double>((a >> i) & 1), 1e-9)
          << "a-register corrupted";
    }
    EXPECT_NEAR(psi.probability_one(2 * bits + 1),
                static_cast<double>((sum >> bits) & 1), 1e-9)
        << "carry out wrong for a=" << a << " b=" << b;
  }
}

TEST(DraperAdder, AddsModuloPowerOfTwo) {
  const int bits = 3;
  for (const auto& [a, b] : std::vector<std::pair<int, int>>{
           {0, 0}, {1, 0}, {0, 1}, {3, 5}, {6, 7}, {2, 3}}) {
    Circuit prep(2 * bits, "prep");
    for (int i = 0; i < bits; ++i) {
      if ((a >> i) & 1) prep.x(i);
      if ((b >> i) & 1) prep.x(bits + i);
    }
    prep.append(draper_adder(bits));
    Statevector psi(2 * bits);
    psi.apply(prep);
    const int sum = (a + b) % (1 << bits);
    const std::size_t expected =
        static_cast<std::size_t>(a) |
        (static_cast<std::size_t>(sum) << bits);
    EXPECT_NEAR(std::abs(psi.amp(expected)), 1.0, 1e-8)
        << "a=" << a << " b=" << b << " sum=" << sum;
  }
}

TEST(ToffoliChain, StructureAndDeterminism) {
  const Circuit c = toffoli_chain(5, 2);
  EXPECT_EQ(c.size(), 6u);  // (5-2) per layer * 2
  for (const ir::Gate& g : c.gates()) {
    EXPECT_EQ(g.kind(), GateKind::kCCX);
  }
}

TEST(RandomCircuit, DeterministicGivenSeed) {
  const Circuit a = random_circuit(6, 100, 0.5, 42);
  const Circuit b = random_circuit(6, 100, 0.5, 42);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.gate(i), b.gate(i));
  }
  const Circuit c = random_circuit(6, 100, 0.5, 43);
  bool any_different = false;
  for (std::size_t i = 0; i < std::min(c.size(), a.size()); ++i) {
    if (!(a.gate(i) == c.gate(i))) any_different = true;
  }
  EXPECT_TRUE(any_different);
}

TEST(RandomCircuit, RespectsTwoQubitFraction) {
  const Circuit all_2q = random_circuit(5, 200, 1.0, 7);
  EXPECT_EQ(std::ranges::count(all_2q.gates(), 2, &ir::Gate::num_qubits), 200);
  const Circuit no_2q = random_circuit(5, 200, 0.0, 7);
  EXPECT_EQ(std::ranges::count(no_2q.gates(), 2, &ir::Gate::num_qubits), 0);
}

TEST(QaoaMaxcut, LayersAndMixerStructure) {
  const Circuit c = qaoa_maxcut(8, 3, 11);
  std::size_t rzz = 0, rx = 0, h = 0;
  for (const ir::Gate& g : c.gates()) {
    if (g.kind() == GateKind::kRZZ) ++rzz;
    if (g.kind() == GateKind::kRX) ++rx;
    if (g.kind() == GateKind::kH) ++h;
  }
  EXPECT_EQ(h, 8u);
  EXPECT_EQ(rx, 24u);      // n per layer
  EXPECT_GE(rzz, 3u * 8u); // at least the ring per layer
}

TEST(HardwareEfficientAnsatz, GateCounts) {
  const Circuit c = hardware_efficient_ansatz(6, 3, 5);
  std::size_t ry = 0, cz = 0;
  for (const ir::Gate& g : c.gates()) {
    if (g.kind() == GateKind::kRY) ++ry;
    if (g.kind() == GateKind::kCZ) ++cz;
  }
  EXPECT_EQ(ry, 24u);  // (layers+1) * n
  EXPECT_EQ(cz, 15u);  // layers * (n-1)
}

TEST(IsingTrotter, GateCounts) {
  const Circuit c = ising_trotter(5, 4);
  std::size_t rzz = 0, rx = 0;
  for (const ir::Gate& g : c.gates()) {
    if (g.kind() == GateKind::kRZZ) ++rzz;
    if (g.kind() == GateKind::kRX) ++rx;
  }
  EXPECT_EQ(rzz, 16u);  // (n-1) * steps
  EXPECT_EQ(rx, 20u);   // n * steps
}

TEST(Generators, RejectInvalidArguments) {
  EXPECT_THROW(qft(0), ContractViolation);
  EXPECT_THROW(ghz(1), ContractViolation);
  EXPECT_THROW(w_state(1), ContractViolation);
  EXPECT_THROW(simon(3, 0), ContractViolation);
  EXPECT_THROW(grover(1, 1), ContractViolation);
  EXPECT_THROW(random_circuit(5, 10, 1.5, 1), ContractViolation);
}

}  // namespace
}  // namespace codar::workloads
