// Differential equivalence: the event-driven router must reproduce the
// original full-rescan loop (kept verbatim in tests/support/rescan_router.hpp)
// gate-for-gate. Routes 50+ generated circuits across devices, front
// windows, and feature ablations, asserting identical output circuits,
// swap counts, and router makespans.

#include <gtest/gtest.h>

#include "codar/arch/device.hpp"
#include "codar/core/codar_router.hpp"
#include "codar/qasm/writer.hpp"
#include "codar/workloads/generators.hpp"
#include "support/rescan_router.hpp"

namespace codar::core {
namespace {

using ir::Circuit;
using ir::Qubit;

void expect_same_routing(const arch::Device& device, const CodarConfig& config,
                         const Circuit& circuit) {
  const RoutingResult incremental =
      CodarRouter(device, config).route(circuit);
  const RoutingResult oracle =
      codar::testing::route_with_rescan(device, config, circuit);

  EXPECT_EQ(incremental.stats.swaps_inserted, oracle.stats.swaps_inserted);
  EXPECT_EQ(incremental.stats.router_makespan, oracle.stats.router_makespan);
  EXPECT_EQ(incremental.stats.forced_swaps, oracle.stats.forced_swaps);
  EXPECT_EQ(incremental.stats.escape_swaps, oracle.stats.escape_swaps);
  EXPECT_EQ(incremental.final, oracle.final);
  // Byte-identical output: same gates, same order, same operands.
  ASSERT_EQ(incremental.circuit.size(), oracle.circuit.size());
  for (std::size_t i = 0; i < oracle.circuit.size(); ++i) {
    ASSERT_EQ(incremental.circuit.gate(i), oracle.circuit.gate(i))
        << "first divergence at output position " << i << " on "
        << circuit.name();
  }
  EXPECT_EQ(qasm::to_qasm(incremental.circuit), qasm::to_qasm(oracle.circuit));
}

/// Adds ordering fences and measurements so the differential also covers
/// non-unitary gates.
Circuit with_fences(Circuit c) {
  const Qubit fence[] = {0, 1};
  c.barrier(fence);
  c.cx(0, 1);
  c.measure(0);
  c.measure(1);
  return c;
}

struct DiffCase {
  const char* device;
  int num_qubits;
  int num_gates;
  double two_qubit_fraction;
  std::uint64_t seed;
};

arch::Device device_by_name(const std::string& name) {
  if (name == "linear6") return arch::linear(6);
  if (name == "ring8") return arch::ring(8);
  if (name == "grid3x3") return arch::grid(3, 3);
  if (name == "yorktown") return arch::ibm_q5_yorktown();
  if (name == "tokyo") return arch::ibm_q20_tokyo();
  throw std::runtime_error("unknown device " + name);
}

class RouterDifferential : public ::testing::TestWithParam<DiffCase> {};

// 13 circuit cases x 4 config variants = 52 differentially routed circuits,
// plus the fenced/named-workload cases below.
TEST_P(RouterDifferential, MatchesRescanOracleAcrossConfigs) {
  const DiffCase& tc = GetParam();
  const arch::Device dev = device_by_name(tc.device);
  const Circuit c = workloads::random_circuit(
      tc.num_qubits, tc.num_gates, tc.two_qubit_fraction, tc.seed);

  CodarConfig full;  // all features on, default window

  CodarConfig tight_window;
  tight_window.front_window = 4;

  CodarConfig no_commut;
  no_commut.commutativity_aware = false;
  no_commut.front_window = 0;  // unbounded

  CodarConfig blind;
  blind.context_aware = false;
  blind.duration_aware = false;
  blind.fine_priority = false;

  for (const CodarConfig& config : {full, tight_window, no_commut, blind}) {
    expect_same_routing(dev, config, c);
  }
}

INSTANTIATE_TEST_SUITE_P(
    GeneratedCircuits, RouterDifferential,
    ::testing::Values(DiffCase{"linear6", 6, 80, 0.5, 21},
                      DiffCase{"linear6", 5, 120, 0.7, 22},
                      DiffCase{"ring8", 8, 100, 0.4, 23},
                      DiffCase{"ring8", 6, 150, 0.5, 24},
                      DiffCase{"grid3x3", 9, 150, 0.5, 25},
                      DiffCase{"grid3x3", 9, 200, 0.6, 26},
                      DiffCase{"grid3x3", 7, 90, 0.3, 27},
                      DiffCase{"yorktown", 5, 70, 0.5, 28},
                      DiffCase{"yorktown", 4, 110, 0.6, 29},
                      DiffCase{"tokyo", 20, 300, 0.5, 30},
                      DiffCase{"tokyo", 16, 250, 0.4, 31},
                      DiffCase{"tokyo", 12, 180, 0.6, 32},
                      DiffCase{"linear6", 3, 60, 0.8, 33}),
    [](const ::testing::TestParamInfo<DiffCase>& pinfo) {
      const DiffCase& p = pinfo.param;
      return std::string(p.device) + "_q" + std::to_string(p.num_qubits) +
             "_g" + std::to_string(p.num_gates) + "_s" +
             std::to_string(p.seed);
    });

TEST(RouterDifferential, BarriersAndMeasurementsMatchOracle) {
  const arch::Device dev = arch::grid(3, 3);
  for (const std::uint64_t seed : {41, 42, 43}) {
    const Circuit c =
        with_fences(workloads::random_circuit(9, 120, 0.5, seed));
    expect_same_routing(dev, CodarConfig{}, c);
  }
}

TEST(RouterDifferential, NamedWorkloadsMatchOracle) {
  const arch::Device tokyo = arch::ibm_q20_tokyo();
  expect_same_routing(tokyo, CodarConfig{}, workloads::qft(12));
  expect_same_routing(tokyo, CodarConfig{}, workloads::ghz(16));
  expect_same_routing(tokyo, CodarConfig{},
                      workloads::qaoa_maxcut(14, 2, 7));

  // Window of 1 exercises the boundary-sliding path hard.
  CodarConfig window1;
  window1.front_window = 1;
  expect_same_routing(tokyo, window1, workloads::qft(10));
}

TEST(RouterDifferential, LongCircuitsSlideTheDefaultWindow) {
  // Longer than the default window of 150, so long commuting runs cross a
  // sliding window boundary: a QFT round trip (420 gates), ising_16_16
  // (496) and a 1500-gate random circuit.
  const arch::Device tokyo = arch::ibm_q20_tokyo();
  Circuit round_trip = workloads::qft(20);
  round_trip.append(workloads::inverse_qft(20));
  expect_same_routing(tokyo, CodarConfig{}, round_trip);
  expect_same_routing(tokyo, CodarConfig{}, workloads::ising_trotter(16, 16));
  expect_same_routing(tokyo, CodarConfig{},
                      workloads::random_circuit(16, 1500, 0.5, 44));
}

}  // namespace
}  // namespace codar::core
