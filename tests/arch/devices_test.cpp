#include "codar/arch/device.hpp"

#include <gtest/gtest.h>

#include "codar/arch/device_parameters.hpp"

namespace codar::arch {
namespace {

TEST(Devices, IbmQ16Shape) {
  const Device d = ibm_q16();
  EXPECT_EQ(d.graph.num_qubits(), 16);
  // 2x8 lattice: 7 horizontal x2 + 8 vertical.
  EXPECT_EQ(d.graph.num_edges(), 22u);
  EXPECT_TRUE(d.graph.is_fully_connected());
  EXPECT_TRUE(d.graph.has_coordinates());
}

TEST(Devices, IbmQ20TokyoShape) {
  const Device d = ibm_q20_tokyo();
  EXPECT_EQ(d.graph.num_qubits(), 20);
  // 4x5 lattice (4*4 + 3*5 = 31 edges) + 12 diagonals = 43.
  EXPECT_EQ(d.graph.num_edges(), 43u);
  EXPECT_TRUE(d.graph.is_fully_connected());
  // Spot-check the published diagonals.
  EXPECT_TRUE(d.graph.connected(1, 7));
  EXPECT_TRUE(d.graph.connected(8, 12));
  EXPECT_TRUE(d.graph.connected(14, 18));
  EXPECT_FALSE(d.graph.connected(0, 6));
}

TEST(Devices, Enfield6x6Shape) {
  const Device d = enfield_6x6();
  EXPECT_EQ(d.graph.num_qubits(), 36);
  EXPECT_EQ(d.graph.num_edges(), 60u);  // 2 * 6 * 5
  EXPECT_TRUE(d.graph.is_fully_connected());
}

TEST(Devices, Sycamore54Shape) {
  const Device d = google_sycamore54();
  EXPECT_EQ(d.graph.num_qubits(), 54);
  EXPECT_TRUE(d.graph.is_fully_connected());
  EXPECT_TRUE(d.graph.has_coordinates());
  // Degree <= 4 everywhere (square-lattice subgraph).
  for (ir::Qubit q = 0; q < 54; ++q) {
    EXPECT_LE(d.graph.neighbors(q).size(), 4u);
    EXPECT_GE(d.graph.neighbors(q).size(), 1u);
  }
}

TEST(Devices, YorktownBowTie) {
  const Device d = ibm_q5_yorktown();
  EXPECT_EQ(d.graph.num_qubits(), 5);
  EXPECT_EQ(d.graph.num_edges(), 6u);
  EXPECT_TRUE(d.graph.connected(2, 3));
  EXPECT_FALSE(d.graph.connected(0, 4));
}

TEST(Devices, GridGenerator) {
  const Device d = grid(3, 4);
  EXPECT_EQ(d.graph.num_qubits(), 12);
  EXPECT_EQ(d.graph.num_edges(), 17u);  // 3*3 + 2*4
  EXPECT_EQ(d.graph.coordinate(7).row, 1);
  EXPECT_EQ(d.graph.coordinate(7).col, 3);
  EXPECT_EQ(d.graph.distance(0, 11), 5);
}

TEST(Devices, LinearAndRing) {
  const Device lin = linear(5);
  EXPECT_EQ(lin.graph.num_edges(), 4u);
  EXPECT_EQ(lin.graph.distance(0, 4), 4);
  const Device rng = ring(5);
  EXPECT_EQ(rng.graph.num_edges(), 5u);
  EXPECT_EQ(rng.graph.distance(0, 4), 1);
  EXPECT_THROW(ring(2), ContractViolation);
}

TEST(DeviceParameters, TableOneSurvey) {
  const auto& params = table1_parameters();
  ASSERT_EQ(params.size(), 6u);
  // Superconducting 2q/1q ratio lands in the 2-4x band the paper uses.
  for (const DeviceParameters& p : params) {
    if (p.technology == "superconducting") {
      const int ratio = duration_ratio_cycles(p);
      EXPECT_GE(ratio, 2) << p.device;
      EXPECT_LE(ratio, 4) << p.device;
    }
  }
  // Ion traps are ~12x; neutral atoms ~1x.
  EXPECT_EQ(duration_ratio_cycles(params[0]), 13);  // 250/20 rounded
  EXPECT_EQ(duration_ratio_cycles(params[5]), 1);
}

// -- Fingerprints -----------------------------------------------------------

TEST(DeviceFingerprint, PinnedValues) {
  // Pinned across runs, platforms and build modes: the serve route cache
  // keys on these, so a silent change would invalidate persisted caches.
  // If a fingerprint-schema change is intentional, bump the version tag
  // and re-pin. (Device schema v2 since PR 5: fidelity map + calibration
  // folded in.)
  const Device tokyo = ibm_q20_tokyo();
  EXPECT_EQ(tokyo.graph.fingerprint(), 0xb9d107e764d6aeb7ull);
  EXPECT_EQ(tokyo.durations.fingerprint(), 0x5e2f25065b076676ull);
  EXPECT_EQ(tokyo.fidelities.fingerprint(), 0x10a4bfa138278efeull);
  EXPECT_EQ(tokyo.fingerprint(), 0xd3c6885709513960ull);
  EXPECT_EQ(ibm_q5_yorktown().fingerprint(), 0x5d39476bbaf326bfull);
}

TEST(DeviceFingerprint, PinnedFidelityMapValues) {
  // FidelityMap::fingerprint feeds Device::fingerprint (and thus the
  // serve cache key); pin the two common tables.
  EXPECT_EQ(FidelityMap().fingerprint(), 0x10a4bfa138278efeull);
  EXPECT_EQ(FidelityMap::superconducting().fingerprint(),
            0x086594f6ba459f22ull);
  EXPECT_NE(FidelityMap::ion_trap().fingerprint(),
            FidelityMap::neutral_atom().fingerprint());
}

TEST(DeviceFingerprint, FidelityAndCalibrationDistinguish) {
  Device plain = linear(4);
  Device measured = linear(4);
  measured.fidelities = FidelityMap::superconducting();
  EXPECT_NE(plain.fingerprint(), measured.fingerprint());

  // A recalibrated device must never alias its homogeneous twin in the
  // serve route cache.
  Device calibrated = linear(4);
  calibrated.calibration.set_duration_2q(1, 2, 5);
  EXPECT_NE(plain.fingerprint(), calibrated.fingerprint());

  Device recalibrated = linear(4);
  recalibrated.calibration.set_duration_2q(1, 2, 7);
  EXPECT_NE(calibrated.fingerprint(), recalibrated.fingerprint());
}

TEST(DeviceFingerprint, IndependentOfEdgeInsertionOrder) {
  CouplingGraph forward(3);
  forward.add_edge(0, 1);
  forward.add_edge(1, 2);
  CouplingGraph backward(3);
  backward.add_edge(2, 1);
  backward.add_edge(1, 0);
  EXPECT_EQ(forward.fingerprint(), backward.fingerprint());
}

TEST(DeviceFingerprint, IgnoresNameButNotStructure) {
  Device a = linear(4);
  Device b = linear(4);
  b.name = "renamed";
  EXPECT_EQ(a.fingerprint(), b.fingerprint());

  // Structure distinguishes: an extra edge, different durations.
  EXPECT_NE(linear(4).fingerprint(), ring(4).fingerprint());
  Device slow = linear(4, DurationMap::ion_trap());
  EXPECT_NE(a.fingerprint(), slow.fingerprint());
}

TEST(DeviceFingerprint, StableAcrossCopies) {
  const Device original = enfield_6x6();
  const Device copy = original;  // different heap allocations
  EXPECT_EQ(original.fingerprint(), copy.fingerprint());
}

}  // namespace
}  // namespace codar::arch
