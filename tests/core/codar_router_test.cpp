#include "codar/core/codar_router.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "codar/arch/device.hpp"
#include "codar/schedule/scheduler.hpp"
#include "codar/workloads/generators.hpp"
#include "support/routing_checks.hpp"

namespace codar::core {
namespace {

using ir::Circuit;
using ir::GateKind;
using ir::Qubit;
using testing::expect_routing_valid;
using testing::expect_states_equivalent;

TEST(CodarRouter, HardwareCompliantCircuitPassesThrough) {
  const arch::Device dev = arch::linear(4);
  Circuit c(4);
  c.h(0);
  c.cx(0, 1);
  c.cx(1, 2);
  c.cx(2, 3);
  const CodarRouter router(dev);
  const RoutingResult result = router.route(c);
  EXPECT_EQ(result.stats.swaps_inserted, 0u);
  EXPECT_EQ(result.circuit.size(), c.size());
  expect_routing_valid(c, result, dev);
  EXPECT_EQ(result.final, result.initial);
}

TEST(CodarRouter, InsertsSwapForDistantGate) {
  const arch::Device dev = arch::linear(3);
  Circuit c(3);
  c.cx(0, 2);
  const CodarRouter router(dev);
  const RoutingResult result = router.route(c);
  EXPECT_EQ(result.stats.swaps_inserted, 1u);
  expect_routing_valid(c, result, dev);
  expect_states_equivalent(c, result, dev);
}

TEST(CodarRouter, RejectsUnloweredCircuit) {
  const arch::Device dev = arch::linear(4);
  Circuit c(4);
  c.ccx(0, 1, 2);
  const CodarRouter router(dev);
  EXPECT_THROW(router.route(c), ContractViolation);
}

TEST(CodarRouter, RejectsOversizedCircuit) {
  const arch::Device dev = arch::linear(3);
  Circuit c(5);
  c.h(4);
  const CodarRouter router(dev);
  EXPECT_THROW(router.route(c), ContractViolation);
}

TEST(CodarRouter, RejectsDisconnectedDevice) {
  arch::CouplingGraph g(4);
  g.add_edge(0, 1);
  g.add_edge(2, 3);
  const arch::Device dev{"split", std::move(g), arch::DurationMap()};
  EXPECT_THROW(CodarRouter router(dev), ContractViolation);
}

// --- Paper Fig. 2: duration awareness unlocks the earlier SWAP -----------

arch::Device fig2_device() {
  // 2x2 lattice (the motivating examples' coupling map): Q0-Q1, Q0-Q2,
  // Q1-Q3, Q2-Q3; Q0 and Q3 are not adjacent.
  return arch::grid(2, 2);
}

Circuit fig2_program() {
  // T q[1] and CX q[0],q[2] start together; CX q[0],q[3] needs a SWAP.
  Circuit c(4, "fig2");
  c.t(1);
  c.cx(0, 2);
  c.cx(0, 3);
  return c;
}

TEST(CodarRouter, Fig2DurationAwareUsesEarlyFreeQubit) {
  const arch::Device dev = fig2_device();
  const Circuit c = fig2_program();
  const CodarRouter router(dev);
  const RoutingResult result = router.route(c);
  expect_routing_valid(c, result, dev);
  expect_states_equivalent(c, result, dev);

  // The paper's answer: SWAP q[3],q[1] is the best candidate because it can
  // start at cycle 1, right after T finishes, while CX q[0],q[2] still runs.
  ASSERT_EQ(result.stats.swaps_inserted, 1u);
  const auto swap_it =
      std::find_if(result.circuit.gates().begin(),
                   result.circuit.gates().end(), [](const ir::Gate& g) {
                     return g.kind() == GateKind::kSwap;
                   });
  ASSERT_NE(swap_it, result.circuit.gates().end());
  EXPECT_TRUE((swap_it->qubit(0) == 1 && swap_it->qubit(1) == 3) ||
              (swap_it->qubit(0) == 3 && swap_it->qubit(1) == 1));

  // Timeline: T 0..1, CX 0..2, SWAP 1..7, CX(Q0,Q1) 7..9.
  EXPECT_EQ(schedule::weighted_depth(result.circuit, dev.durations), 9);
  EXPECT_EQ(result.stats.router_makespan, 9);
}

TEST(CodarRouter, Fig2DurationBlindIsNoBetter) {
  const arch::Device dev = fig2_device();
  const Circuit c = fig2_program();
  CodarConfig blind;
  blind.duration_aware = false;
  const RoutingResult aware = CodarRouter(dev).route(c);
  const RoutingResult blind_result = CodarRouter(dev, blind).route(c);
  expect_routing_valid(c, blind_result, dev);
  EXPECT_GE(schedule::weighted_depth(blind_result.circuit, dev.durations),
            schedule::weighted_depth(aware.circuit, dev.durations));
}

// --- Paper Fig. 7 walk-through -------------------------------------------

TEST(CodarRouter, Fig7WalkThrough) {
  // 6-qubit device; gate sequence: CX q0,q2; T q1; CX q0,q3.
  // Cycle 0: first two launch; SWAP {q3,q5} has negative priority and the
  // lock-free filter rules out {q1,q3}/{q2,q3}. Cycle 1: q1 frees, SWAP
  // q1,q3 is chosen; locks of q1,q3 go to 1 + 6 = 7.
  arch::CouplingGraph g(6);
  g.add_edge(0, 1);
  g.add_edge(0, 2);
  g.add_edge(1, 3);
  g.add_edge(2, 3);
  g.add_edge(2, 4);
  g.add_edge(3, 5);
  g.add_edge(4, 5);
  const arch::Device dev{"fig7", std::move(g), arch::DurationMap()};

  Circuit c(6, "fig7");
  c.cx(0, 2);
  c.t(1);
  c.cx(0, 3);

  const CodarRouter router(dev);
  const RoutingResult result = router.route(c);
  expect_routing_valid(c, result, dev);
  expect_states_equivalent(c, result, dev);

  ASSERT_EQ(result.stats.swaps_inserted, 1u);
  // Output order: the two executable gates, then the SWAP q1,q3, then the
  // remapped CX on the physical pair (0,1).
  ASSERT_EQ(result.circuit.size(), 4u);
  EXPECT_EQ(result.circuit.gate(2).kind(), GateKind::kSwap);
  EXPECT_TRUE(result.circuit.gate(2).acts_on(1));
  EXPECT_TRUE(result.circuit.gate(2).acts_on(3));
  const ir::Gate& final_cx = result.circuit.gate(3);
  EXPECT_EQ(final_cx.kind(), GateKind::kCX);
  EXPECT_EQ(final_cx.qubit(0), 0);
  EXPECT_EQ(final_cx.qubit(1), 1);
  // SWAP starts at 1 (T's lock expiry) and runs 6 cycles -> locks go to 7;
  // the CX follows at 7..9.
  const schedule::Schedule sched =
      schedule::asap_schedule(result.circuit, dev.durations);
  EXPECT_EQ(sched.gates[2].start, 1);
  EXPECT_EQ(sched.gates[2].finish, 7);
  EXPECT_EQ(sched.makespan, 9);
}

// --- Context sensitivity (Fig. 1 mechanism) -------------------------------

TEST(CodarRouter, ContextAwareAvoidsBusyQubits) {
  // Ring of 6: CX q1,q2 occupies Q1,Q2 for two cycles while CX q0,q3 needs
  // routing (distance 3 around either arc). The context-aware router must
  // route through the *free* arc; the context-blind ablation picks a SWAP
  // touching the busy region and has to wait for it.
  const arch::Device dev = arch::ring(6);
  Circuit c(6, "fig1_ring");
  c.cx(1, 2);  // occupies Q1, Q2 until cycle 2
  c.cx(0, 3);  // blocked, needs SWAPs

  const RoutingResult aware = CodarRouter(dev).route(c);
  CodarConfig blind_cfg;
  blind_cfg.context_aware = false;
  const RoutingResult blind = CodarRouter(dev, blind_cfg).route(c);
  expect_routing_valid(c, aware, dev);
  expect_routing_valid(c, blind, dev);
  expect_states_equivalent(c, aware, dev);

  auto first_swap = [](const Circuit& circuit) {
    const auto it = std::find_if(circuit.gates().begin(),
                                 circuit.gates().end(), [](const ir::Gate& g) {
                                   return g.kind() == GateKind::kSwap;
                                 });
    EXPECT_NE(it, circuit.gates().end());
    return *it;
  };
  // Context-aware: first SWAP avoids the locked Q1/Q2.
  const ir::Gate aware_swap = first_swap(aware.circuit);
  EXPECT_FALSE(aware_swap.acts_on(1));
  EXPECT_FALSE(aware_swap.acts_on(2));
  // Context-blind: its tie-break lands on the busy edge (Q0, Q1).
  const ir::Gate blind_swap = first_swap(blind.circuit);
  EXPECT_TRUE(blind_swap.acts_on(1));
  // And the execution time shows it: aware is no slower.
  EXPECT_LE(schedule::weighted_depth(aware.circuit, dev.durations),
            schedule::weighted_depth(blind.circuit, dev.durations));
}

// --- Commutativity look-ahead ---------------------------------------------

TEST(CodarRouter, CommutativityExposesSharedTargetCx) {
  // CX q0,q3 (blocked, needs routing) followed by CX q2,q3 (adjacent).
  // The gates share target q3 and commute, so with commutativity detection
  // the second launches immediately; the plain-DAG-front ablation must
  // first route and retire the blocked gate.
  const arch::Device dev = arch::linear(4);
  Circuit c(4);
  c.cx(0, 3);
  c.cx(2, 3);

  const RoutingResult with_cf = CodarRouter(dev).route(c);
  CodarConfig no_cf_cfg;
  no_cf_cfg.commutativity_aware = false;
  const RoutingResult no_cf = CodarRouter(dev, no_cf_cfg).route(c);
  expect_routing_valid(c, with_cf, dev);
  expect_routing_valid(c, no_cf, dev);
  expect_states_equivalent(c, with_cf, dev);
  expect_states_equivalent(c, no_cf, dev);

  // With CF look-ahead, the adjacent CX launches at cycle 0: first output
  // gate is a CX on physical (2,3).
  ASSERT_FALSE(with_cf.circuit.empty());
  const ir::Gate& first = with_cf.circuit.gate(0);
  EXPECT_EQ(first.kind(), GateKind::kCX);
  EXPECT_TRUE(first.acts_on(2));
  EXPECT_TRUE(first.acts_on(3));
  // Without it, the router must start with a SWAP for the blocked gate.
  ASSERT_FALSE(no_cf.circuit.empty());
  EXPECT_EQ(no_cf.circuit.gate(0).kind(), GateKind::kSwap);
  EXPECT_LE(schedule::weighted_depth(with_cf.circuit, dev.durations),
            schedule::weighted_depth(no_cf.circuit, dev.durations));
}

TEST(CodarRouter, AblationConfigsAllProduceValidRoutes) {
  const arch::Device dev = arch::ibm_q5_yorktown();
  const Circuit c = workloads::random_circuit(5, 60, 0.5, 123);
  for (const bool context : {true, false}) {
    for (const bool duration : {true, false}) {
      for (const bool commut : {true, false}) {
        for (const bool fine : {true, false}) {
          CodarConfig cfg;
          cfg.context_aware = context;
          cfg.duration_aware = duration;
          cfg.commutativity_aware = commut;
          cfg.fine_priority = fine;
          const RoutingResult result = CodarRouter(dev, cfg).route(c);
          expect_routing_valid(c, result, dev);
        }
      }
    }
  }
}

// --- Stat regressions ------------------------------------------------------

TEST(CodarRouter, CyclesCountDistinctTimestampsFig2) {
  // Hand-computed Fig. 2 timeline: the router visits t = 0 (T and
  // CX q0,q2 launch), t = 1 (T's qubit frees, SWAP q1,q3 inserted), t = 2
  // (CX q0,q2 frees; nothing can run — SWAP holds q1,q3 until 7) and t = 7
  // (the final CX launches). Four distinct timestamps.
  const RoutingResult result = CodarRouter(fig2_device()).route(fig2_program());
  EXPECT_EQ(result.stats.cycles_simulated, 4u);
}

TEST(CodarRouter, CyclesNotInflatedByForcedSwapRounds) {
  // Three pairwise-commuting CZ gates between the even corners of a
  // 6-ring: every candidate SWAP has H_basic = 0 (each helps one gate and
  // hurts another symmetrically), so the very first iteration deadlocks
  // into force_swap. That forced round and the follow-up SWAP round happen
  // at the same timestamp t = 0; the old per-iteration counter reported 6
  // "cycles" where the router only worked at the 5 distinct times
  // 0, 6, 8, 10, 16.
  const arch::Device dev = arch::ring(6);
  Circuit c(6, "cz_triangle");
  c.cz(0, 2);
  c.cz(2, 4);
  c.cz(4, 0);
  const RoutingResult result = CodarRouter(dev).route(c);
  expect_routing_valid(c, result, dev);
  EXPECT_GT(result.stats.forced_swaps, 0u);
  EXPECT_EQ(result.stats.cycles_simulated, 5u);
  EXPECT_EQ(result.stats.router_makespan, 18);
}

TEST(CodarRouter, BarriersReportedSeparatelyFromRoutedGates) {
  const arch::Device dev = arch::linear(3);
  Circuit c(3);
  c.h(0);
  const Qubit fence[] = {0, 1};
  c.barrier(fence);
  c.cx(0, 2);
  c.barrier(fence);
  c.measure(0);
  const CodarRouter router(dev);
  const RoutingResult result = router.route(c);
  // Barriers are ordering fences, not operations: they must not inflate
  // gates_routed (which feeds fidelity/ESP post-processing).
  EXPECT_EQ(result.stats.barriers, 2u);
  EXPECT_EQ(result.stats.gates_routed, c.size() - 2);
  EXPECT_EQ(result.circuit.size(),
            result.stats.gates_routed + result.stats.barriers +
                result.stats.swaps_inserted);
}

TEST(CodarRouter, MeasureAndBarrierAreRouted) {
  const arch::Device dev = arch::linear(3);
  Circuit c(3);
  c.h(0);
  const Qubit fence[] = {0, 1};
  c.barrier(fence);
  c.cx(0, 2);
  c.measure(0);
  c.measure(2);
  const CodarRouter router(dev);
  const RoutingResult result = router.route(c);
  expect_routing_valid(c, result, dev);
  std::size_t measures = 0;
  std::size_t barriers = 0;
  for (const ir::Gate& g : result.circuit.gates()) {
    if (g.kind() == GateKind::kMeasure) ++measures;
    if (g.kind() == GateKind::kBarrier) ++barriers;
  }
  EXPECT_EQ(measures, 2u);
  EXPECT_EQ(barriers, 1u);
}

TEST(CodarRouter, CustomInitialLayoutRespected) {
  const arch::Device dev = arch::linear(4);
  Circuit c(2);
  c.cx(0, 1);
  const layout::Layout initial = layout::Layout::from_l2p({3, 2}, 4);
  const CodarRouter router(dev);
  const RoutingResult result = router.route(c, initial);
  EXPECT_EQ(result.initial, initial);
  EXPECT_EQ(result.stats.swaps_inserted, 0u);  // 3 and 2 are adjacent
  EXPECT_EQ(result.circuit.gate(0).qubit(0), 3);
  EXPECT_EQ(result.circuit.gate(0).qubit(1), 2);
  expect_routing_valid(c, result, dev);
}

TEST(CodarRouter, StatsAreConsistent) {
  const arch::Device dev = arch::grid(3, 3);
  const Circuit c = workloads::qft(6);
  const RoutingResult result = CodarRouter(dev).route(c);
  EXPECT_EQ(result.stats.gates_routed, c.size());  // qft has no barriers
  EXPECT_EQ(result.stats.barriers, 0u);
  EXPECT_EQ(result.circuit.size(), c.size() + result.stats.swaps_inserted);
  EXPECT_EQ(static_cast<std::size_t>(std::ranges::count(
                result.circuit.gates(), ir::GateKind::kSwap, &ir::Gate::kind)),
            result.stats.swaps_inserted);
  EXPECT_GT(result.stats.cycles_simulated, 0u);
  // Cycles are distinct simulated timestamps; the router can never visit
  // more timestamps than its timeline has, plus the initial t = 0.
  EXPECT_LE(result.stats.cycles_simulated,
            static_cast<std::size_t>(result.stats.router_makespan) + 1);
  // The router's own timeline is exactly the ASAP schedule of its output.
  EXPECT_GE(result.stats.router_makespan,
            schedule::weighted_depth(result.circuit, dev.durations));
}

/// Property sweep: many random circuits on several devices must route,
/// verify, and (when small enough) stay semantically exact.
struct PropertyCase {
  const char* device_name;
  int num_qubits;
  int num_gates;
  double two_qubit_fraction;
  std::uint64_t seed;
};

class CodarRouterProperty : public ::testing::TestWithParam<PropertyCase> {};

arch::Device device_by_name(const std::string& name, int n) {
  if (name == "linear") return arch::linear(n);
  if (name == "ring") return arch::ring(n);
  if (name == "grid3x3") return arch::grid(3, 3);
  if (name == "yorktown") return arch::ibm_q5_yorktown();
  if (name == "tokyo") return arch::ibm_q20_tokyo();
  throw std::runtime_error("unknown device " + name);
}

TEST_P(CodarRouterProperty, RoutesVerifiesAndPreservesSemantics) {
  const PropertyCase& tc = GetParam();
  const arch::Device dev = device_by_name(tc.device_name, tc.num_qubits);
  const Circuit c = workloads::random_circuit(
      tc.num_qubits, tc.num_gates, tc.two_qubit_fraction, tc.seed);
  const RoutingResult result = CodarRouter(dev).route(c);
  expect_routing_valid(c, result, dev);
  if (dev.graph.num_qubits() <= 9) {
    expect_states_equivalent(c, result, dev);
  }
}

INSTANTIATE_TEST_SUITE_P(
    RandomCircuits, CodarRouterProperty,
    ::testing::Values(
        PropertyCase{"linear", 4, 40, 0.5, 1},
        PropertyCase{"linear", 6, 80, 0.5, 2},
        PropertyCase{"linear", 8, 120, 0.6, 3},
        PropertyCase{"ring", 5, 60, 0.5, 4},
        PropertyCase{"ring", 8, 100, 0.4, 5},
        PropertyCase{"grid3x3", 9, 150, 0.5, 6},
        PropertyCase{"grid3x3", 7, 90, 0.7, 7},
        PropertyCase{"yorktown", 5, 70, 0.5, 8},
        PropertyCase{"yorktown", 4, 50, 0.3, 9},
        PropertyCase{"tokyo", 20, 400, 0.5, 10},
        PropertyCase{"tokyo", 12, 250, 0.6, 11}),
    [](const ::testing::TestParamInfo<PropertyCase>& param_info) {
      return std::string(param_info.param.device_name) + "_q" +
             std::to_string(param_info.param.num_qubits) + "_g" +
             std::to_string(param_info.param.num_gates) + "_s" +
             std::to_string(param_info.param.seed);
    });

}  // namespace
}  // namespace codar::core
