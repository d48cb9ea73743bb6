// Tests for fidelity-aware routing: the SwapCost pricing model itself,
// the codar-fid pass's differential contract (beta = gamma = 0 routes
// byte-identically to plain codar over the whole 71-bench suite), and the
// acceptance criterion that the default weights beat plain codar's ESP on
// at least half of the suite on the calibrated noisy Tokyo device.

#include "codar/cost/swap_cost.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>

#include "codar/arch/device.hpp"
#include "codar/arch/device_json.hpp"
#include "codar/pipeline/pipeline.hpp"
#include "codar/workloads/suite.hpp"

namespace codar::cost {
namespace {

/// The quantization grid of SwapCost (documented in swap_cost.hpp).
double quantize(double x) { return std::nearbyint(x * 65536.0) / 65536.0; }

/// A checked-in file, by its path relative to the source root (passed in
/// by tests/CMakeLists.txt, so the lookup works from any build directory).
std::string source_file(const std::string& relative) {
  return (std::filesystem::path(CODAR_SOURCE_ROOT) / relative).string();
}

TEST(SwapCost, ZeroWeightsPriceEveryEdgeAtZero) {
  arch::Device dev = arch::linear(3);
  dev.fidelities = arch::FidelityMap::superconducting();
  dev.coherence.t2 = 100.0;
  const SwapCost model(dev, 0.0, 0.0);
  EXPECT_EQ(model.bonus(0, 1), 0.0);
  EXPECT_EQ(model.bonus(2, 1), 0.0);
}

TEST(SwapCost, BonusesAreSymmetricNonPositiveAndQuantized) {
  arch::Device dev = arch::linear(3);
  dev.fidelities = arch::FidelityMap::superconducting();
  dev.calibration.set_fidelity_2q(1, 2, 0.9);
  dev.coherence.t1 = 300.0;
  const SwapCost model(dev, 2.0, 1.0);
  for (const auto& [a, b] : {std::pair<ir::Qubit, ir::Qubit>{0, 1},
                             std::pair<ir::Qubit, ir::Qubit>{1, 2}}) {
    const double bonus = model.bonus(a, b);
    EXPECT_EQ(bonus, model.bonus(b, a));
    EXPECT_LE(bonus, 0.0);
    // Quantized to the 1/65536 grid (bit-reproducible routing).
    EXPECT_EQ(bonus * 65536.0, std::nearbyint(bonus * 65536.0));
  }
}

TEST(SwapCost, MatchesClosedFormPricing) {
  arch::Device dev = arch::linear(2);
  dev.calibration.set_fidelity_2q(0, 1, 0.9);  // F_swap = 0.9^3
  dev.coherence.t1 = 400.0;
  dev.coherence.t2 = 200.0;
  const double beta = 2.0, gamma = 0.5;
  const SwapCost model(dev, beta, gamma);
  const double lambda = 1.0 / 400.0 + 1.0 / 200.0;
  const ir::Qubit phys[] = {0, 1};
  const double dur =
      static_cast<double>(dev.duration(ir::GateKind::kSwap, phys));
  const double expected =
      quantize(beta * std::log(std::pow(0.9, 3)) - gamma * dur * lambda);
  EXPECT_DOUBLE_EQ(model.bonus(0, 1), expected);
}

TEST(SwapCost, PrefersTheBetterCalibratedEdge) {
  arch::Device dev = arch::linear(3);
  dev.calibration.set_fidelity_2q(0, 1, 0.99);
  dev.calibration.set_fidelity_2q(1, 2, 0.90);
  const SwapCost model(dev, 2.0, 0.0);
  EXPECT_GT(model.bonus(0, 1), model.bonus(1, 2));
  // With only the duration/decoherence term and uniform durations, the
  // edges price identically; with infinite coherence the term is zero.
  const SwapCost ideal_time(dev, 0.0, 3.0);
  EXPECT_EQ(ideal_time.bonus(0, 1), ideal_time.bonus(1, 2));
  EXPECT_EQ(ideal_time.bonus(0, 1), 0.0);
}

TEST(CodarFid, ZeroWeightsRouteByteIdenticallyToCodar) {
  // The differential contract behind the router's cache story: with
  // beta = gamma = 0 the codar-fid pass must produce byte-identical
  // routed output to plain codar on every benchmark of the suite.
  const arch::Device dev = arch::enfield_6x6();
  pipeline::RoutingSpec base;
  base.router = "codar";
  pipeline::RoutingSpec fid = base;
  fid.router = "codar-fid";
  fid.fid.beta = 0.0;
  fid.fid.gamma = 0.0;
  fid.fid.alpha = 1.0;
  const pipeline::Pipeline plain(dev, base);
  const pipeline::Pipeline aware(dev, fid);
  for (const workloads::BenchmarkSpec& spec : workloads::benchmark_suite()) {
    const pipeline::RouteReport a = plain.run(spec.circuit, true);
    const pipeline::RouteReport b = aware.run(spec.circuit, true);
    ASSERT_TRUE(a.ok()) << spec.name << ": " << a.error;
    ASSERT_TRUE(b.ok()) << spec.name << ": " << b.error;
    EXPECT_EQ(a.routed_qasm, b.routed_qasm) << spec.name;
    EXPECT_EQ(a.swaps, b.swaps) << spec.name;
    EXPECT_EQ(a.depth_out, b.depth_out) << spec.name;
    EXPECT_EQ(a.log_esp, b.log_esp) << spec.name;
  }
}

TEST(CodarFid, DefaultWeightsBeatCodarEspOnMostOfTheSuite) {
  // Acceptance: on the calibrated noisy Tokyo device, codar-fid with its
  // default weights must strictly improve log-ESP over plain codar on at
  // least half (>= 36) of the 71 benchmarks. The three 36-qubit entries
  // cannot fit a 20-qubit device and count as non-wins.
  const std::string path = source_file("examples/devices/tokyo-noisy.json");
  ASSERT_TRUE(std::filesystem::exists(path)) << path << " not found";
  const arch::Device dev = arch::load_device_file(path);
  ASSERT_TRUE(dev.coherence.any_finite());

  pipeline::RoutingSpec base;
  base.router = "codar";
  pipeline::RoutingSpec fid = base;
  fid.router = "codar-fid";
  const pipeline::Pipeline plain(dev, base);
  const pipeline::Pipeline aware(dev, fid);

  int wins = 0, routed = 0;
  for (const workloads::BenchmarkSpec& spec : workloads::benchmark_suite()) {
    if (spec.circuit.num_qubits() > dev.graph.num_qubits()) continue;
    const pipeline::RouteReport a = plain.run(spec.circuit);
    const pipeline::RouteReport b = aware.run(spec.circuit);
    ASSERT_TRUE(a.ok()) << spec.name << ": " << a.error;
    ASSERT_TRUE(b.ok()) << spec.name << ": " << b.error;
    ++routed;
    if (b.log_esp > a.log_esp) ++wins;
  }
  EXPECT_EQ(routed, 68);
  EXPECT_GE(wins, 36) << "codar-fid won only " << wins << "/" << routed;
}

}  // namespace
}  // namespace codar::cost
