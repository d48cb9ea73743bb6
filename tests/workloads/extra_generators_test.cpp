#include <gtest/gtest.h>

#include <cmath>

#include "codar/sim/statevector.hpp"
#include "codar/workloads/generators.hpp"

namespace codar::workloads {
namespace {

using ir::GateKind;
using sim::Statevector;

TEST(Qpe, ExactPhasesAreRecoveredDeterministically) {
  const int counting = 4;
  for (const int j : {0, 1, 5, 9, 15}) {
    const double theta = static_cast<double>(j) / 16.0;
    const Circuit c = qpe(counting, theta);
    Statevector psi(c.num_qubits());
    psi.apply(c);
    for (int bit = 0; bit < counting; ++bit) {
      EXPECT_NEAR(psi.probability_one(bit),
                  static_cast<double>((j >> bit) & 1), 1e-9)
          << "j=" << j << " bit " << bit;
    }
  }
}

TEST(Qpe, InexactPhaseConcentratesNearTruth) {
  // theta = 0.3 is not exactly representable on 4 bits; the most likely
  // outcome must still be one of the two nearest grid points (4 or 5).
  const Circuit c = qpe(4, 0.3);
  Statevector psi(c.num_qubits());
  psi.apply(c);
  double best_p = 0.0;
  int best_j = -1;
  for (int j = 0; j < 16; ++j) {
    double p = 0.0;
    for (std::size_t i = 0; i < psi.dim(); ++i) {
      if ((i & 15u) == static_cast<unsigned>(j)) p += std::norm(psi.amp(i));
    }
    if (p > best_p) {
      best_p = p;
      best_j = j;
    }
  }
  EXPECT_TRUE(best_j == 4 || best_j == 5) << "argmax " << best_j;
  EXPECT_GT(best_p, 0.3);
}

TEST(Qpe, StructureIsCu1Heavy) {
  const Circuit c = qpe(6, 0.5);
  std::size_t cu1 = 0;
  for (const ir::Gate& g : c.gates()) {
    if (g.kind() == GateKind::kCU1) ++cu1;
  }
  // 6 kickback controls + 15 inverse-QFT ladder rotations.
  EXPECT_EQ(cu1, 21u);
}

}  // namespace
}  // namespace codar::workloads
