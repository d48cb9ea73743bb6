#include "codar/sabre/sabre_router.hpp"

#include <algorithm>
#include <limits>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "codar/arch/device.hpp"
#include "codar/schedule/scheduler.hpp"
#include "codar/workloads/generators.hpp"
#include "codar/workloads/suite.hpp"
#include "support/routing_checks.hpp"

namespace codar::sabre {
namespace {

using core::RoutingResult;
using ir::Circuit;
using ir::GateKind;
using testing::expect_routing_valid;
using testing::expect_states_equivalent;

TEST(SabreRouter, HardwareCompliantCircuitPassesThrough) {
  const arch::Device dev = arch::linear(4);
  Circuit c(4);
  c.h(0);
  c.cx(0, 1);
  c.cx(2, 3);
  const SabreRouter router(dev);
  const RoutingResult result = router.route(c);
  EXPECT_EQ(result.stats.swaps_inserted, 0u);
  expect_routing_valid(c, result, dev);
}

TEST(SabreRouter, BarriersNotCountedAsRoutedGates) {
  const arch::Device dev = arch::linear(3);
  Circuit c(3);
  c.h(0);
  const ir::Qubit fence[] = {0, 1};
  c.barrier(fence);
  c.cx(0, 1);
  const RoutingResult result = SabreRouter(dev).route(c);
  EXPECT_EQ(result.stats.barriers, 1u);
  EXPECT_EQ(result.stats.gates_routed, c.size() - 1);
}

TEST(SabreRouter, InsertsSwapsForDistantGate) {
  const arch::Device dev = arch::linear(4);
  Circuit c(4);
  c.cx(0, 3);
  const SabreRouter router(dev);
  const RoutingResult result = router.route(c);
  EXPECT_GE(result.stats.swaps_inserted, 2u);
  expect_routing_valid(c, result, dev);
  expect_states_equivalent(c, result, dev);
}

TEST(SabreRouter, RespectsDependencyOrder) {
  const arch::Device dev = arch::linear(3);
  Circuit c(3);
  c.h(0);
  c.cx(0, 2);
  c.t(0);
  const SabreRouter router(dev);
  const RoutingResult result = router.route(c);
  expect_routing_valid(c, result, dev);
  expect_states_equivalent(c, result, dev);
}

TEST(SabreRouter, RejectsBadInputs) {
  const arch::Device dev = arch::linear(3);
  Circuit toffoli(3);
  toffoli.ccx(0, 1, 2);
  EXPECT_THROW(SabreRouter(dev).route(toffoli), ContractViolation);
  Circuit wide(9);
  wide.h(8);
  EXPECT_THROW(SabreRouter(dev).route(wide), ContractViolation);
}

TEST(SabreRouter, LookaheadAndDecayKnobsWork) {
  const arch::Device dev = arch::ibm_q20_tokyo();
  const Circuit c = workloads::random_circuit(12, 300, 0.5, 77);
  SabreConfig no_lookahead;
  no_lookahead.extended_set_size = 0;
  const RoutingResult plain = SabreRouter(dev, no_lookahead).route(c);
  const RoutingResult full = SabreRouter(dev).route(c);
  expect_routing_valid(c, plain, dev);
  expect_routing_valid(c, full, dev);
}

TEST(SabreRouter, InitialMappingIsInjectiveAndDeterministic) {
  const arch::Device dev = arch::ibm_q20_tokyo();
  const Circuit c = workloads::qft(10);
  const SabreRouter router(dev);
  const layout::Layout a = router.initial_mapping(c, 2, 5);
  const layout::Layout b = router.initial_mapping(c, 2, 5);
  EXPECT_EQ(a, b);
  std::vector<bool> used(20, false);
  for (ir::Qubit q = 0; q < 10; ++q) {
    const ir::Qubit p = a.physical(q);
    ASSERT_GE(p, 0);
    ASSERT_LT(p, 20);
    EXPECT_FALSE(used[static_cast<std::size_t>(p)]);
    used[static_cast<std::size_t>(p)] = true;
  }
}

TEST(SabreRouter, InitialMappingReducesSwapCount) {
  // Reverse-traversal refinement should beat a random layout on average.
  const arch::Device dev = arch::ibm_q20_tokyo();
  const Circuit c = workloads::random_circuit(16, 600, 0.5, 99);
  const SabreRouter router(dev);
  const layout::Layout refined = router.initial_mapping(c, 3, 13);
  const layout::Layout random = layout::random_layout(16, 20, 13);
  const auto swaps_refined = router.route(c, refined).stats.swaps_inserted;
  const auto swaps_random = router.route(c, random).stats.swaps_inserted;
  EXPECT_LE(swaps_refined, swaps_random + swaps_random / 4)
      << "refined mapping should not be much worse than random";
}

bool routed_two_qubit(const ir::Gate& g) {
  return g.num_qubits() == 2 && g.kind() != GateKind::kBarrier;
}

std::size_t two_qubit_count(const Circuit& c) {
  std::size_t n = 0;
  for (const ir::Gate& g : c.gates()) n += routed_two_qubit(g) ? 1 : 0;
  return n;
}

/// The circuit's gates up to and including its k-th routed 2-qubit gate.
Circuit two_qubit_prefix(const Circuit& c, std::size_t k) {
  Circuit prefix(c.num_qubits(), c.name());
  std::size_t seen = 0;
  for (const ir::Gate& g : c.gates()) {
    if (seen == k) break;
    prefix.add(g);
    seen += routed_two_qubit(g) ? 1 : 0;
  }
  return prefix;
}

TEST(SabreRouter, HorizonAtOrPastTheCircuitKeepsTheWholeCircuitLayout) {
  // Every suite circuit that fits tokyo, cut to 4000 gates so the
  // sanitizer lanes stay fast: horizon 0 and every horizon that covers
  // all routed 2-qubit gates search the whole circuit.
  const arch::Device dev = arch::ibm_q20_tokyo();
  const SabreRouter router(dev);
  for (const workloads::BenchmarkSpec& spec : workloads::benchmark_suite()) {
    if (spec.circuit.num_qubits() > dev.graph.num_qubits()) continue;
    const std::span<const ir::Gate> gates =
        spec.circuit.gates().first(std::min<std::size_t>(
            spec.circuit.size(), 4000));
    const Circuit c(spec.circuit.num_qubits(), spec.name,
                    std::vector<ir::Gate>(gates.begin(), gates.end()));
    const layout::Layout whole = router.initial_mapping(c, 3, 17);
    const int count = static_cast<int>(two_qubit_count(c));
    for (const int horizon :
         {0, count, count + 1, std::numeric_limits<int>::max()}) {
      EXPECT_EQ(router.initial_mapping(c, 3, 17, horizon), whole)
          << spec.name << " horizon " << horizon;
    }
  }
}

TEST(SabreRouter, HorizonSearchesExactlyTheTwoQubitPrefix) {
  // The prefix ends at the k-th routed 2-qubit gate, whatever the
  // single-qubit gates and barriers around it.
  const arch::Device dev = arch::ibm_q20_tokyo();
  const SabreRouter router(dev);
  Circuit fenced = workloads::random_circuit(12, 400, 0.5, 31);
  const ir::Qubit pair[] = {3, 7};  // a 2-qubit barrier is not routed
  fenced.barrier(pair);
  fenced.append(workloads::qft(12));
  fenced.append(workloads::random_circuit(12, 1000, 0.5, 32));
  for (const Circuit& c :
       {workloads::random_circuit(16, 4000, 0.5, 5), fenced}) {
    const std::size_t count = two_qubit_count(c);
    for (const std::size_t k : {std::size_t{1}, std::size_t{7},
                                std::size_t{250}, std::size_t{500}}) {
      ASSERT_LT(k, count) << c.name();
      const Circuit prefix = two_qubit_prefix(c, k);
      ASSERT_EQ(two_qubit_count(prefix), k);
      EXPECT_EQ(router.initial_mapping(c, 2, 9, static_cast<int>(k)),
                router.initial_mapping(prefix, 2, 9))
          << c.name() << " horizon " << k;
    }
  }
}

TEST(SabreRouter, InitialMappingRejectsBadKnobs) {
  const arch::Device dev = arch::linear(3);
  Circuit c(3);
  c.cx(0, 2);
  const SabreRouter router(dev);
  EXPECT_THROW(router.initial_mapping(c, 0, 17), ContractViolation);
  EXPECT_THROW(router.initial_mapping(c, 1, 17, -1), ContractViolation);
}

TEST(SabreRouter, EmitsOnlyDagFrontGates) {
  // SABRE never reorders non-commuting gates: verified structurally by the
  // CF matcher, which subsumes plain dependency order.
  const arch::Device dev = arch::grid(3, 3);
  const Circuit c = workloads::qft(7);
  const RoutingResult result = SabreRouter(dev).route(c);
  expect_routing_valid(c, result, dev);
  expect_states_equivalent(c, result, dev);
}

struct SabreCase {
  int num_qubits;
  int num_gates;
  std::uint64_t seed;
};

class SabreProperty : public ::testing::TestWithParam<SabreCase> {};

TEST_P(SabreProperty, RandomCircuitsRouteAndVerify) {
  const SabreCase& tc = GetParam();
  const arch::Device dev = arch::grid(3, 3);
  const Circuit c =
      workloads::random_circuit(tc.num_qubits, tc.num_gates, 0.5, tc.seed);
  const RoutingResult result = SabreRouter(dev).route(c);
  expect_routing_valid(c, result, dev);
  expect_states_equivalent(c, result, dev);
}

INSTANTIATE_TEST_SUITE_P(
    RandomCircuits, SabreProperty,
    ::testing::Values(SabreCase{5, 60, 21}, SabreCase{7, 100, 22},
                      SabreCase{9, 160, 23}, SabreCase{9, 240, 24},
                      SabreCase{6, 90, 25}),
    [](const ::testing::TestParamInfo<SabreCase>& param_info) {
      return "q" + std::to_string(param_info.param.num_qubits) + "_g" +
             std::to_string(param_info.param.num_gates) + "_s" +
             std::to_string(param_info.param.seed);
    });

}  // namespace
}  // namespace codar::sabre
