// Distance-backend equivalence at full pipeline scale: the 71-benchmark
// suite must route byte-identically whether distances come from the dense
// all-pairs matrix (the kAuto choice on paper-scale devices) or from the
// on-demand CSR/BFS oracle that large devices use. BFS hop counts are
// unique, so the backends return the same values and every downstream
// decision — SABRE initial mapping, CODAR swap selection, the A* search,
// scheduling — must be bit-for-bit reproducible. This is the regression
// net that keeps BENCH_paper.json valid for every backend.

#include <gtest/gtest.h>

#include "codar/arch/device.hpp"
#include "codar/arch/distance_oracle.hpp"
#include "codar/astar/astar_router.hpp"
#include "codar/core/codar_router.hpp"
#include "codar/qasm/writer.hpp"
#include "codar/sabre/sabre_router.hpp"
#include "codar/workloads/suite.hpp"

namespace codar {
namespace {

struct RoutedSuite {
  std::vector<std::string> names;
  std::vector<core::RoutingResult> results;
  std::vector<layout::Layout> initial_layouts;
};

/// Maps and routes every suite circuit that fits `device` under one
/// distance policy (the throughput bench's configuration: SABRE mapping
/// rounds=2 seed=17, the router's default config).
template <typename Router>
RoutedSuite route_suite(arch::Device device, arch::DistancePolicy policy) {
  device.graph.set_distance_policy(policy);
  device.graph.prepare();

  const Router router(device);
  const sabre::SabreRouter mapper(device);

  RoutedSuite routed;
  for (const workloads::BenchmarkSpec& spec : workloads::benchmark_suite()) {
    if (spec.circuit.num_qubits() > device.graph.num_qubits()) continue;
    layout::Layout initial =
        mapper.initial_mapping(spec.circuit, /*rounds=*/2, /*seed=*/17);
    routed.names.push_back(spec.name);
    routed.results.push_back(router.route(spec.circuit, initial));
    routed.initial_layouts.push_back(std::move(initial));
  }
  return routed;
}

void expect_identical(const RoutedSuite& dense, const RoutedSuite& other,
                      const char* label) {
  ASSERT_EQ(dense.names, other.names);
  for (std::size_t i = 0; i < dense.names.size(); ++i) {
    SCOPED_TRACE(dense.names[i] + " under " + label);
    EXPECT_EQ(dense.initial_layouts[i], other.initial_layouts[i]);
    const core::RoutingResult& a = dense.results[i];
    const core::RoutingResult& b = other.results[i];
    EXPECT_EQ(a.stats.swaps_inserted, b.stats.swaps_inserted);
    EXPECT_EQ(a.stats.router_makespan, b.stats.router_makespan);
    EXPECT_EQ(a.stats.cycles_simulated, b.stats.cycles_simulated);
    EXPECT_EQ(a.final, b.final);
    ASSERT_EQ(a.circuit.size(), b.circuit.size());
    for (std::size_t k = 0; k < a.circuit.size(); ++k) {
      ASSERT_EQ(a.circuit.gate(k), b.circuit.gate(k))
          << "first divergence at output position " << k;
    }
    EXPECT_EQ(qasm::to_qasm(a.circuit), qasm::to_qasm(b.circuit));
  }
}

TEST(OracleEquivalence, SuiteRoutesByteIdenticallyUnderOnDemand) {
  const RoutedSuite dense = route_suite<core::CodarRouter>(
      arch::enfield_6x6(), arch::DistancePolicy::kDense);
  const RoutedSuite on_demand = route_suite<core::CodarRouter>(
      arch::enfield_6x6(), arch::DistancePolicy::kOnDemand);
  ASSERT_EQ(dense.names.size(), workloads::benchmark_suite().size());
  expect_identical(dense, on_demand, "on-demand");
}

TEST(OracleEquivalence, AstarSuiteRoutesByteIdenticallyUnderOnDemand) {
  // A* prices its search with the oracle on every expansion, so a backend
  // that answered anything but the exact distance would reorder its
  // frontier and change routes.
  const RoutedSuite dense = route_suite<astar::AstarRouter>(
      arch::ibm_q20_tokyo(), arch::DistancePolicy::kDense);
  const RoutedSuite on_demand = route_suite<astar::AstarRouter>(
      arch::ibm_q20_tokyo(), arch::DistancePolicy::kOnDemand);
  ASSERT_GT(dense.names.size(), 60u);  // all but the 36-qubit programs
  expect_identical(dense, on_demand, "on-demand");
}

}  // namespace
}  // namespace codar
