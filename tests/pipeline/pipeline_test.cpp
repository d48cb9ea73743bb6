// Tests for the composable compilation pipeline: a round-trip over every
// registered router × mapping combination, the stage sequence and its
// instrumentation, failure reporting, the JSON contract that stage
// timings stay out of the stats unless the caller opted in (--timing),
// and the router's clock bounding the scheduled depth.

#include <algorithm>
#include <cctype>
#include <string>
#include <tuple>

#include <gtest/gtest.h>

#include "codar/arch/device.hpp"
#include "codar/pipeline/device_registry.hpp"
#include "codar/pipeline/pipeline.hpp"
#include "codar/sabre/sabre_router.hpp"
#include "codar/workloads/generators.hpp"
#include "codar/workloads/suite.hpp"

namespace codar::pipeline {
namespace {

/// The paper's Fig. 2 motivating program: T q[1] and CX q[0],q[2] start
/// together; CX q[0],q[3] needs a SWAP on any device where Q0 and Q3 are
/// not adjacent (true on tokyo and on the 2x2 lattice alike).
ir::Circuit fig2_program() {
  ir::Circuit c(4, "fig2");
  c.t(1);
  c.cx(0, 2);
  c.cx(0, 3);
  return c;
}

bool has_stage(const RouteReport& report, std::string_view stage) {
  return std::any_of(report.stage_us.begin(), report.stage_us.end(),
                     [&](const StageTiming& t) { return t.stage == stage; });
}

TEST(Pipeline, EveryRouterTimesEveryMappingRoutesAndVerifies) {
  const arch::Device device = arch::ibm_q20_tokyo();
  const ir::Circuit circuit = fig2_program();
  for (const RouterEntry& router : RouterRegistry::instance().entries()) {
    for (const MappingEntry& mapping :
         MappingRegistry::instance().entries()) {
      RoutingSpec spec;
      spec.router = router.name;
      spec.mapping = mapping.name;
      const Pipeline pipe(device, spec);
      EXPECT_EQ(pipe.router().name(), router.name);
      EXPECT_EQ(pipe.mapping().name(), mapping.name);

      const RouteReport report = pipe.run(circuit);
      const std::string combo = router.name + " x " + mapping.name;
      EXPECT_TRUE(report.ok()) << combo << ": " << report.error;
      EXPECT_TRUE(report.verified) << combo;
      EXPECT_EQ(report.gates_in, 3u) << combo;
      EXPECT_EQ(report.gates_out, report.gates_in + report.swaps) << combo;
      EXPECT_GE(report.depth_out, report.depth_in) << combo;
    }
  }
}

TEST(Pipeline, RecordsTheStageSequence) {
  const arch::Device device = arch::ibm_q20_tokyo();
  RoutingSpec spec;
  const Pipeline pipe(device, spec);
  const RouteReport report =
      pipe.run(fig2_program(), /*keep_qasm=*/true);
  ASSERT_TRUE(report.ok()) << report.error;
  // Default spec: no peephole stage; verify on; render requested.
  const char* expected[] = {"lower", "initial", "route",
                            "report", "verify", "render"};
  ASSERT_EQ(report.stage_us.size(), std::size(expected));
  for (std::size_t i = 0; i < std::size(expected); ++i) {
    EXPECT_EQ(report.stage_us[i].stage, expected[i]);
  }
  // route_us is the "route" stage by definition.
  EXPECT_EQ(report.route_us, report.stage_us[2].us);
  EXPECT_FALSE(report.routed_qasm.empty());

  RoutingSpec tweaked;
  tweaked.peephole = true;
  tweaked.verify = false;
  const RouteReport other =
      Pipeline(device, tweaked).run(fig2_program(), /*keep_qasm=*/false);
  EXPECT_TRUE(other.verify_skipped);
  EXPECT_TRUE(has_stage(other, "peephole"));
  EXPECT_FALSE(has_stage(other, "verify"));
  EXPECT_FALSE(has_stage(other, "render"));
}

TEST(Pipeline, UnknownPassNamesFailConstruction) {
  const arch::Device device = arch::ibm_q20_tokyo();
  RoutingSpec bad_router;
  bad_router.router = "qiskit";
  EXPECT_THROW(Pipeline(device, bad_router), UsageError);
  RoutingSpec bad_mapping;
  bad_mapping.mapping = "annealed";
  EXPECT_THROW(Pipeline(device, bad_mapping), UsageError);

  // route_circuit degrades the same failure to an error report instead
  // of throwing, matching every other per-circuit failure.
  RoutingSpec opts;
  opts.router = "qiskit";
  const RouteReport report =
      route_circuit(fig2_program(), device, opts, /*keep_qasm=*/false);
  EXPECT_FALSE(report.ok());
  EXPECT_NE(report.error.find("unknown router"), std::string::npos)
      << report.error;
}

TEST(Pipeline, SabreMappingPassesSeedRoundsAndHorizon) {
  // The sabre entry must hand the spec's seed, rounds and horizon to the
  // layout search. Each pair below holds initial_mapping's default and one
  // other value, and on this circuit each knob moves the layout by itself,
  // so a pass that dropped any of the three would choose another layout.
  const arch::Device device = arch::ibm_q20_tokyo();
  const ir::Circuit circuit =
      workloads::random_circuit(16, 240, 0.5, /*seed=*/5);
  const sabre::SabreRouter sabre(device);
  const auto layout = [&](std::uint64_t seed, int rounds, int horizon) {
    return sabre.initial_mapping(circuit, rounds, seed, horizon);
  };
  EXPECT_NE(layout(17, 3, 0), layout(3, 3, 0));
  EXPECT_NE(layout(17, 3, 0), layout(17, 1, 0));
  EXPECT_NE(layout(17, 3, 0), layout(17, 3, 40));
  for (const std::uint64_t seed : {17u, 3u}) {
    for (const int rounds : {3, 1}) {
      for (const int horizon : {0, 40}) {
        RoutingSpec spec;
        spec.seed = seed;
        spec.mapping_rounds = rounds;
        spec.mapping_horizon = horizon;
        EXPECT_EQ(Pipeline(device, spec).mapping().choose(circuit, device),
                  layout(seed, rounds, horizon))
            << "seed " << seed << ", rounds " << rounds << ", horizon "
            << horizon;
      }
    }
  }
}

TEST(Pipeline, OversizedCircuitFailsInTheLowerStage) {
  const arch::Device device = arch::ibm_q5_yorktown();
  RoutingSpec spec;
  ir::Circuit wide(8, "wide");
  for (ir::Qubit q = 1; q < 8; ++q) wide.cx(0, q);
  const RouteReport report = Pipeline(device, spec).run(wide);
  EXPECT_FALSE(report.ok());
  EXPECT_NE(report.error.find("qubits"), std::string::npos) << report.error;
}

TEST(Pipeline, StageTimingsAreExcludedFromJsonUnlessTimingIsSet) {
  const arch::Device device = arch::ibm_q20_tokyo();
  RoutingSpec opts;
  const RouteReport report =
      route_circuit(fig2_program(), device, opts, /*keep_qasm=*/false);
  ASSERT_TRUE(report.ok()) << report.error;
  ASSERT_FALSE(report.stage_us.empty());  // instrumentation always runs

  // Default rendering: no wall-time keys at all, so batch stats stay
  // bit-identical across runs and thread counts.
  const std::string plain = to_json(report, opts);
  EXPECT_EQ(plain.find("route_us"), std::string::npos) << plain;
  EXPECT_EQ(plain.find("stage_us"), std::string::npos) << plain;

  RoutingSpec timed = opts;
  timed.timing = true;
  const std::string with_timing = to_json(report, timed);
  EXPECT_NE(with_timing.find("\"route_us\": "), std::string::npos)
      << with_timing;
  EXPECT_NE(with_timing.find("\"stage_us\": {\"lower\": "),
            std::string::npos)
      << with_timing;
  EXPECT_NE(with_timing.find("\"route\": "), std::string::npos)
      << with_timing;
}

// The ASAP scheduler only removes the router's decision delays, so the
// weighted depth of a routed circuit never exceeds the router's own
// makespan; a violation means the two timing models disagree (say, on
// calibrated per-edge durations). Suite circuits of up to 4000 gates.
class TimingInvariant
    : public ::testing::TestWithParam<std::tuple<std::string, std::string>> {
};

TEST_P(TimingInvariant, ScheduledDepthNeverExceedsRouterMakespan) {
  const auto& [device_spec, router] = GetParam();
  const arch::Device device = DeviceRegistry::instance().make(device_spec);
  RoutingSpec spec;
  spec.router = router;
  const Pipeline pipe(device, spec);
  int routed = 0;
  for (const workloads::BenchmarkSpec& bench : workloads::benchmark_suite()) {
    if (bench.circuit.size() > 4000 ||
        bench.circuit.num_qubits() > device.graph.num_qubits()) {
      continue;
    }
    const RouteReport report = pipe.run(bench.circuit);
    ASSERT_TRUE(report.ok()) << bench.name << ": " << report.error;
    EXPECT_LE(report.depth_out, report.makespan) << bench.name;
    ++routed;
  }
  EXPECT_GE(routed, 60);
}

const std::string kExampleDevices =
    std::string("file:") + CODAR_SOURCE_ROOT + "/examples/devices/";

INSTANTIATE_TEST_SUITE_P(
    PaperAndCalibratedDevices, TimingInvariant,
    ::testing::Combine(
        ::testing::Values("q16", "tokyo", "enfield", "sycamore",
                          kExampleDevices + "tokyo_calibrated.json",
                          kExampleDevices + "tokyo-noisy.json"),
        ::testing::Values("codar", "codar-fid")),
    [](const ::testing::TestParamInfo<TimingInvariant::ParamType>&
           param_info) {
      std::string name = std::get<0>(param_info.param) + "_" +
                         std::get<1>(param_info.param);
      name = name.substr(name.rfind('/') + 1);
      for (char& c : name) {
        if (std::isalnum(static_cast<unsigned char>(c)) == 0) c = '_';
      }
      return name;
    });

}  // namespace
}  // namespace codar::pipeline
