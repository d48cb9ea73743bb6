// Differential equivalence: the incremental SABRE pass must reproduce the
// original loop (kept verbatim in tests/support/reference_sabre.hpp). Over
// every suite circuit that fits six devices, for seeds {3, 17} and rounds
// {1, 2, 3}, initial_mapping must return the reference layout, and route()
// from that layout must emit the reference circuit with the same SWAP and
// escape counts. A second config sets stagnation_threshold = 1 so the
// shortest-path escape runs constantly.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "codar/pipeline/device_registry.hpp"
#include "codar/sabre/sabre_router.hpp"
#include "codar/workloads/suite.hpp"
#include "support/reference_sabre.hpp"

namespace codar::sabre {
namespace {

using core::RoutingResult;

/// Gate cap per circuit: the suite's 20k-gate slot is cut to its first
/// kMaxGates gates so the reference loop stays within a few seconds.
constexpr std::size_t kMaxGates = 4000;

std::vector<workloads::BenchmarkSpec> fitting_suite(const arch::Device& dev) {
  std::vector<workloads::BenchmarkSpec> out;
  for (workloads::BenchmarkSpec& spec : workloads::benchmark_suite()) {
    if (spec.circuit.num_qubits() > dev.graph.num_qubits()) continue;
    if (spec.circuit.size() > kMaxGates) {
      ir::Circuit prefix(spec.circuit.num_qubits(), spec.circuit.name());
      for (std::size_t i = 0; i < kMaxGates; ++i) {
        prefix.add(spec.circuit.gate(i));
      }
      spec.circuit = std::move(prefix);
    }
    out.push_back(std::move(spec));
  }
  return out;
}

void expect_same_route(const RoutingResult& actual,
                       const RoutingResult& expected,
                       const std::string& what) {
  EXPECT_EQ(actual.stats.swaps_inserted, expected.stats.swaps_inserted)
      << what;
  EXPECT_EQ(actual.stats.escape_swaps, expected.stats.escape_swaps) << what;
  EXPECT_EQ(actual.final, expected.final) << what;
  ASSERT_EQ(actual.circuit.size(), expected.circuit.size()) << what;
  for (std::size_t i = 0; i < expected.circuit.size(); ++i) {
    ASSERT_EQ(actual.circuit.gate(i), expected.circuit.gate(i))
        << "first divergence at output position " << i << " on " << what;
  }
}

class SabreDifferential : public ::testing::TestWithParam<std::string> {
 protected:
  arch::Device device() const {
    return pipeline::DeviceRegistry::instance().make(GetParam());
  }
};

TEST_P(SabreDifferential, LayoutsAndRoutesMatchReference) {
  const arch::Device dev = device();
  const SabreConfig config;
  const SabreRouter router(dev, config);
  const auto suite = fitting_suite(dev);
  ASSERT_FALSE(suite.empty());
  for (const workloads::BenchmarkSpec& spec : suite) {
    for (const std::uint64_t seed : {3u, 17u}) {
      const std::vector<layout::Layout> expected =
          codar::testing::reference_sabre_layouts(dev, config, spec.circuit,
                                                  3, seed);
      for (int rounds = 1; rounds <= 3; ++rounds) {
        const std::string what = spec.name + " seed " + std::to_string(seed) +
                                 " rounds " + std::to_string(rounds);
        const layout::Layout& layout =
            expected[static_cast<std::size_t>(rounds - 1)];
        ASSERT_EQ(router.initial_mapping(spec.circuit, rounds, seed), layout)
            << what;
        expect_same_route(router.route(spec.circuit, layout),
                          codar::testing::route_with_reference_sabre(
                              dev, config, spec.circuit, layout),
                          what);
      }
    }
  }
}

TEST_P(SabreDifferential, EscapeHeavyConfigMatchesReference) {
  const arch::Device dev = device();
  SabreConfig config;
  config.stagnation_threshold = 1;
  const SabreRouter router(dev, config);
  std::size_t escapes = 0;
  for (const workloads::BenchmarkSpec& spec : fitting_suite(dev)) {
    const layout::Layout expected = codar::testing::reference_sabre_layouts(
        dev, config, spec.circuit, 1, 17)[0];
    ASSERT_EQ(router.initial_mapping(spec.circuit, 1, 17), expected)
        << spec.name;
    const RoutingResult actual = router.route(spec.circuit, expected);
    expect_same_route(actual,
                      codar::testing::route_with_reference_sabre(
                          dev, config, spec.circuit, expected),
                      spec.name);
    escapes += actual.stats.escape_swaps;
  }
  EXPECT_GT(escapes, 0u) << "the escape path never ran";
}

INSTANTIATE_TEST_SUITE_P(Devices, SabreDifferential,
                         ::testing::Values("q16", "tokyo", "enfield",
                                           "sycamore", "heavyhex:3",
                                           "ring:12"),
                         [](const ::testing::TestParamInfo<std::string>& p) {
                           std::string name = p.param;
                           for (char& ch : name) {
                             if (ch == ':') ch = '_';
                           }
                           return name;
                         });

}  // namespace
}  // namespace codar::sabre
