#include <gtest/gtest.h>

#include "codar/arch/extra_devices.hpp"
#include "codar/core/codar_router.hpp"
#include "codar/ir/inverse.hpp"
#include "codar/ir/peephole.hpp"
#include "codar/sabre/sabre_router.hpp"
#include "codar/schedule/scheduler.hpp"
#include "codar/workloads/generators.hpp"
#include "support/routing_checks.hpp"

namespace codar {
namespace {

using core::CodarRouter;
using core::RoutingResult;
using ir::Circuit;
using testing::expect_routing_valid;
using testing::expect_states_equivalent;

TEST(CrossDevice, HeavyHexRoutesAndVerifies) {
  const arch::Device dev = arch::heavy_hex(3);  // 18 qubits, degree <= 3
  for (const Circuit& c :
       {workloads::qft(9), workloads::random_circuit(12, 400, 0.5, 5),
        workloads::qaoa_maxcut(10, 2, 7)}) {
    const RoutingResult result = CodarRouter(dev).route(c);
    expect_routing_valid(c, result, dev);
  }
}

TEST(CrossDevice, HeavyHexHasHigherRoutingCostThanGrid) {
  // Degree-3 heavy-hex needs at least as many SWAPs as a denser 4x5 grid
  // for the same random workload — a sanity check on connectivity impact.
  const Circuit c = workloads::random_circuit(12, 600, 0.5, 9);
  const arch::Device hex = arch::heavy_hex(3);
  const arch::Device lattice = arch::grid(4, 5);
  const auto swaps_hex =
      CodarRouter(hex).route(c).stats.swaps_inserted;
  const auto swaps_grid =
      CodarRouter(lattice).route(c).stats.swaps_inserted;
  EXPECT_GT(swaps_hex, swaps_grid / 2);  // same order of magnitude
}

TEST(CrossDevice, OctagonChainRoutesAndVerifies) {
  const arch::Device dev = arch::rigetti_octagons(2);  // 16 qubits
  const Circuit c = workloads::random_circuit(10, 300, 0.5, 11);
  const RoutingResult codar_result = CodarRouter(dev).route(c);
  expect_routing_valid(c, codar_result, dev);
  expect_states_equivalent(c, codar_result, dev);
  const sabre::SabreRouter sabre(dev);
  const RoutingResult sabre_result = sabre.route(c);
  expect_routing_valid(c, sabre_result, dev);
}

TEST(CrossDevice, AllToAllNeedsNoSwaps) {
  const arch::Device dev = arch::ion_trap_all_to_all(8);
  for (const Circuit& c :
       {workloads::qft(8), workloads::random_circuit(8, 500, 0.6, 3)}) {
    const RoutingResult result = CodarRouter(dev).route(c);
    EXPECT_EQ(result.stats.swaps_inserted, 0u) << c.name();
    expect_routing_valid(c, result, dev);
    EXPECT_EQ(result.final, result.initial);
  }
}

TEST(CrossDevice, AllToAllWeightedDepthTracksInputSchedule) {
  // With no SWAPs, the routed circuit is a commutation-respecting
  // reordering of the input, so its weighted depth stays within a few
  // percent of the input's own ASAP depth (reordering commuting gates can
  // shift the greedy schedule slightly in either direction).
  const arch::Device dev = arch::ion_trap_all_to_all(6);
  const Circuit c = workloads::qft(6);
  const RoutingResult result = CodarRouter(dev).route(c);
  const auto routed = schedule::weighted_depth(result.circuit, dev.durations);
  const auto original = schedule::weighted_depth(c, dev.durations);
  EXPECT_LE(routed, original + original / 10);
  EXPECT_GE(routed, original - original / 10);
}

TEST(CrossDevice, PeepholeBeforeRoutingNeverBreaksEquivalence) {
  const arch::Device dev = arch::grid(3, 3);
  const Circuit raw = workloads::random_circuit(8, 200, 0.4, 21);
  const Circuit optimized = ir::peephole_optimize(raw);
  const RoutingResult result = CodarRouter(dev).route(optimized);
  expect_routing_valid(optimized, result, dev);
  // Raw and optimized agree, so the routed circuit must match raw's state
  // through the final-layout reference.
  expect_states_equivalent(optimized, result, dev);
}

TEST(CrossDevice, MirrorCircuitSurvivesRoutingOnHeavyHex) {
  // Mirror benchmarking end-to-end: route C·C⁻¹, then the routed circuit
  // must still return every logical qubit to |0> (up to the final
  // permutation, which expect_states_equivalent accounts for).
  const arch::Device dev = arch::heavy_hex(3);
  const Circuit m = ir::mirror(workloads::random_circuit(9, 120, 0.5, 31));
  const RoutingResult result = CodarRouter(dev).route(m);
  expect_routing_valid(m, result, dev);

  sim::Statevector psi(dev.graph.num_qubits());
  psi.apply(result.circuit);
  EXPECT_NEAR(std::abs(psi.amp(0)), 1.0, 1e-9);
}

TEST(CrossDevice, SameCircuitAcrossAllModeledArchitectures) {
  const Circuit c = workloads::bernstein_vazirani(9, 0b101101101);
  std::vector<arch::Device> devices = {arch::ibm_q16(), arch::enfield_6x6(),
                                       arch::ibm_q20_tokyo(),
                                       arch::google_sycamore54()};
  devices.push_back(arch::heavy_hex(3));
  devices.push_back(arch::rigetti_octagons(2));
  devices.push_back(arch::ion_trap_all_to_all(10));
  for (const arch::Device& dev : devices) {
    ASSERT_LE(c.num_qubits(), dev.graph.num_qubits()) << dev.name;
    const RoutingResult result = CodarRouter(dev).route(c);
    expect_routing_valid(c, result, dev);
  }
}

}  // namespace
}  // namespace codar
