// Distance-backend equivalence at full pipeline scale: the 71-benchmark
// suite must route byte-identically whether distances come from the dense
// all-pairs matrix (the kAuto choice on paper-scale devices) or from the
// on-demand CSR/BFS oracle that large devices use. BFS hop counts are
// unique, so the backends return the same values and every downstream
// decision — SABRE initial mapping, CODAR swap selection, scheduling —
// must be bit-for-bit reproducible. This is the regression net that keeps
// BENCH_paper.json valid for every backend.

#include <gtest/gtest.h>

#include "codar/arch/device.hpp"
#include "codar/arch/distance_oracle.hpp"
#include "codar/core/codar_router.hpp"
#include "codar/qasm/writer.hpp"
#include "codar/sabre/sabre_router.hpp"
#include "codar/workloads/suite.hpp"

namespace codar {
namespace {

struct RoutedSuite {
  std::vector<core::RoutingResult> results;
  std::vector<layout::Layout> initial_layouts;
};

/// Maps and routes the whole suite on enfield_6x6 under one distance
/// policy (the throughput bench's configuration: SABRE mapping rounds=2
/// seed=17, default CODAR config).
RoutedSuite route_suite(arch::DistancePolicy policy) {
  arch::Device device = arch::enfield_6x6();
  device.graph.set_distance_policy(policy);
  device.graph.prepare();

  const core::CodarRouter router(device);
  const sabre::SabreRouter mapper(device);

  RoutedSuite routed;
  for (const workloads::BenchmarkSpec& spec : workloads::benchmark_suite()) {
    layout::Layout initial =
        mapper.initial_mapping(spec.circuit, /*rounds=*/2, /*seed=*/17);
    routed.results.push_back(router.route(spec.circuit, initial));
    routed.initial_layouts.push_back(std::move(initial));
  }
  return routed;
}

void expect_identical(const RoutedSuite& dense, const RoutedSuite& other,
                      const char* label) {
  const auto suite = workloads::benchmark_suite();
  ASSERT_EQ(dense.results.size(), suite.size());
  ASSERT_EQ(other.results.size(), suite.size());
  for (std::size_t i = 0; i < suite.size(); ++i) {
    SCOPED_TRACE(suite[i].name + " under " + label);
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
  const RoutedSuite dense = route_suite(arch::DistancePolicy::kDense);
  const RoutedSuite on_demand = route_suite(arch::DistancePolicy::kOnDemand);
  expect_identical(dense, on_demand, "on-demand");
}

TEST(OracleEquivalence, SuiteRoutesByteIdenticallyUnderLandmark) {
  const RoutedSuite dense = route_suite(arch::DistancePolicy::kDense);
  const RoutedSuite landmark = route_suite(arch::DistancePolicy::kLandmark);
  expect_identical(dense, landmark, "landmark");
}

}  // namespace
}  // namespace codar
