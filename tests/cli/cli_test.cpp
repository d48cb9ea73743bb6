// Integration tests for the `codar` CLI driver library: option parsing,
// the device registry, end-to-end QASM-in → verified-QASM-out, and batch
// determinism across thread counts.

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>

#include <gtest/gtest.h>

#include "codar/cli/driver.hpp"
#include "codar/cli/options.hpp"
#include "codar/common/json.hpp"
#include "codar/ir/decompose.hpp"
#include "codar/pipeline/device_registry.hpp"
#include "codar/qasm/parser.hpp"
#include "codar/qasm/writer.hpp"
#include "codar/service/protocol.hpp"
#include "codar/workloads/generators.hpp"

namespace codar::cli {
namespace {

namespace fs = std::filesystem;
using pipeline::RouteReport;
using pipeline::UsageError;

arch::Device make_device(const std::string& spec) {
  return pipeline::DeviceRegistry::instance().make(spec);
}

fs::path temp_dir(const std::string& name) {
  const fs::path dir = fs::path(testing::TempDir()) / name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

void write_qasm_file(const fs::path& path, const ir::Circuit& circuit) {
  std::ofstream out(path);
  ASSERT_TRUE(out.is_open()) << path;
  out << qasm::to_qasm(circuit);
}

// -- Options ----------------------------------------------------------------

TEST(CliOptions, ParsesFlagsAndPositionals) {
  const Options opts = parse_args(
      {"--device", "grid:3x3", "--router", "astar", "--initial", "greedy",
       "--threads", "4", "--no-duration", "--window", "25", "a.qasm"});
  EXPECT_EQ(opts.device, "grid:3x3");
  EXPECT_EQ(opts.router, "astar");
  EXPECT_EQ(opts.mapping, "greedy");
  EXPECT_EQ(opts.threads, 4);
  EXPECT_FALSE(opts.codar.duration_aware);
  EXPECT_TRUE(opts.codar.context_aware);
  EXPECT_EQ(opts.codar.front_window, 25);
  ASSERT_EQ(opts.inputs.size(), 1u);
  EXPECT_EQ(opts.inputs.front(), "a.qasm");
}

TEST(CliOptions, RejectsBadInput) {
  EXPECT_THROW(parse_args({}), UsageError);                    // nothing to do
  EXPECT_THROW(parse_args({"--router", "qiskit", "a.qasm"}), UsageError);
  EXPECT_THROW(parse_args({"--threads"}), UsageError);         // missing value
  EXPECT_THROW(parse_args({"--threads", "two", "a.qasm"}), UsageError);
  EXPECT_THROW(parse_args({"--threads", "4294967297", "a.qasm"}), UsageError);
  EXPECT_THROW(parse_args({"--wat", "a.qasm"}), UsageError);
  EXPECT_THROW(parse_args({"a.qasm", "--suite"}), UsageError);  // two modes
  EXPECT_THROW(parse_args({"-o", "x", "a.qasm", "b.qasm"}), UsageError);
}

TEST(CliOptions, SetFlagFillsExtras) {
  const Options opts =
      parse_args({"--set", "beam=8", "--set", "alpha=0.5", "a.qasm"});
  ASSERT_NE(opts.extra("beam"), nullptr);
  EXPECT_EQ(*opts.extra("beam"), "8");
  ASSERT_NE(opts.extra("alpha"), nullptr);
  EXPECT_EQ(*opts.extra("alpha"), "0.5");
  EXPECT_THROW(parse_args({"--set", "beam8", "a.qasm"}), UsageError);
  EXPECT_THROW(parse_args({"--set", "=8", "a.qasm"}), UsageError);
}

TEST(CliOptions, UnknownRouterAndMappingListRegisteredNames) {
  // The error messages come from the registries, so a newly registered
  // pass appears in them without a CLI edit.
  try {
    parse_args({"--router", "qiskit", "a.qasm"});
    FAIL() << "expected UsageError";
  } catch (const UsageError& e) {
    EXPECT_EQ(std::string(e.what()),
              "unknown router 'qiskit' "
              "(expected codar|codar-fid|sabre|astar)");
  }
  try {
    parse_args({"--initial", "wat", "a.qasm"});
    FAIL() << "expected UsageError";
  } catch (const UsageError& e) {
    EXPECT_EQ(std::string(e.what()),
              "unknown initial mapping 'wat' "
              "(expected identity|greedy|sabre)");
  }
}

TEST(CliOptions, ListRoutersAndMappingsFlags) {
  EXPECT_TRUE(parse_args({"--list-routers"}).list_routers);
  EXPECT_TRUE(parse_args({"--list-mappings"}).list_mappings);

  std::istringstream in;
  std::ostringstream out;
  std::ostringstream err;
  EXPECT_EQ(run_cli({"--list-routers"}, in, out, err), 0) << err.str();
  for (const char* name : {"codar", "codar-fid", "sabre", "astar"}) {
    EXPECT_NE(out.str().find(name), std::string::npos) << out.str();
  }

  std::ostringstream out2;
  EXPECT_EQ(run_cli({"--list-mappings"}, in, out2, err), 0) << err.str();
  for (const char* name : {"identity", "greedy", "sabre"}) {
    EXPECT_NE(out2.str().find(name), std::string::npos) << out2.str();
  }
}

// -- The knob table: the same knobs and bounds on both front ends -----------

/// One knob value in both front ends' syntax: the argv words (empty when
/// the command line cannot spell it) and the JSON token of the option.
struct KnobInput {
  std::vector<std::string> argv;
  std::string json;
};

/// The least value a kInt knob takes: its min, or else the least int.
long long int_floor(const pipeline::RoutingKnob& knob) {
  return static_cast<long long>(
      std::max(knob.min, double{std::numeric_limits<int>::min()}));
}

/// A valid value for `knob`, away from its default.
KnobInput valid_input(const pipeline::RoutingKnob& knob) {
  using Kind = pipeline::RoutingKnob::Kind;
  switch (knob.kind) {
    case Kind::kOn:
      return {{knob.flag}, "true"};
    case Kind::kOff:
      return {{knob.flag}, "false"};
    case Kind::kInt: {
      const std::string n = std::to_string(int_floor(knob) + 7);
      return {{knob.flag, n}, n};
    }
    case Kind::kSeed:
      return {{knob.flag, "3"}, "3"};
    case Kind::kNumber: {
      const double low = std::isfinite(knob.min) ? knob.min : 0.0;
      const std::string x = common::json_number(low + 1.25);
      return {{knob.flag, x}, x};
    }
    case Kind::kMapping:
      return {{knob.flag, "greedy"}, "\"greedy\""};
  }
  return {};
}

/// Values just past `knob`'s bound (a switch has none: serve still refuses
/// a non-boolean).
std::vector<KnobInput> invalid_inputs(const pipeline::RoutingKnob& knob) {
  using Kind = pipeline::RoutingKnob::Kind;
  switch (knob.kind) {
    case Kind::kOn:
    case Kind::kOff:
      return {{{}, "1"}};
    case Kind::kInt: {
      const std::string low = std::to_string(int_floor(knob) - 1);
      const std::string high =
          std::to_string(std::numeric_limits<int>::max() + 1LL);
      return {{{knob.flag, low}, low}, {{knob.flag, high}, high}};
    }
    case Kind::kSeed:
      return {{{knob.flag, "1.5"}, "1.5"}};
    case Kind::kNumber: {
      std::vector<KnobInput> past = {{{knob.flag, "inf"}, "1e999"}};
      if (std::isfinite(knob.min)) {
        const std::string x = common::json_number(knob.min - 0.5);
        past.push_back({{knob.flag, x}, x});
      }
      return past;
    }
    case Kind::kMapping:
      return {{{knob.flag, "annealed"}, "\"annealed\""}};
  }
  return {};
}

std::string request_with(const std::string& key, const std::string& json) {
  return R"({"suite_name": "ghz_3", "options": {")" + key + "\": " + json +
         "}}";
}

Options parse_with_input(std::vector<std::string> argv) {
  argv.push_back("a.qasm");
  return parse_args(argv);
}

TEST(KnobTable, BothFrontEndsAcceptTheSameKnobsAndBounds) {
  const pipeline::RoutingSpec defaults;
  ASSERT_FALSE(pipeline::routing_knobs().empty());
  for (const pipeline::RoutingKnob& knob : pipeline::routing_knobs()) {
    SCOPED_TRACE(std::string(knob.key) + " / " + knob.flag);
    EXPECT_NE(usage().find(knob.flag), std::string::npos);

    const KnobInput valid = valid_input(knob);
    const Options cli = parse_with_input(valid.argv);
    const service::ServeRequest request = service::parse_request(
        request_with(knob.key, valid.json), defaults);
    EXPECT_EQ(service::options_fingerprint(cli),
              service::options_fingerprint(request.opts));
    EXPECT_EQ(cli.timing, request.opts.timing);
    // The value took effect: it keys the route cache, or it is the one
    // presentation knob.
    EXPECT_TRUE(service::options_fingerprint(cli) !=
                    service::options_fingerprint(defaults) ||
                cli.timing != defaults.timing);

    for (const KnobInput& past : invalid_inputs(knob)) {
      SCOPED_TRACE(past.json);
      if (!past.argv.empty()) {
        EXPECT_THROW(parse_with_input(past.argv), UsageError);
      }
      EXPECT_THROW(
          service::parse_request(request_with(knob.key, past.json), defaults),
          service::ProtocolError);
    }
  }
}

// -- Device registry --------------------------------------------------------

TEST(CliDeviceRegistry, BuildsEveryFixedPreset) {
  EXPECT_EQ(make_device("q16").graph.num_qubits(), 16);
  EXPECT_EQ(make_device("tokyo").graph.num_qubits(), 20);
  EXPECT_EQ(make_device("enfield").graph.num_qubits(), 36);
  EXPECT_EQ(make_device("sycamore").graph.num_qubits(), 54);
  EXPECT_EQ(make_device("yorktown").graph.num_qubits(), 5);
}

TEST(CliDeviceRegistry, BuildsParameterizedSpecs) {
  EXPECT_EQ(make_device("grid:3x4").graph.num_qubits(), 12);
  EXPECT_EQ(make_device("linear:7").graph.num_qubits(), 7);
  EXPECT_EQ(make_device("ring:9").graph.num_qubits(), 9);
  EXPECT_GT(make_device("heavyhex:3").graph.num_qubits(), 9);
  EXPECT_GT(make_device("octagons:2").graph.num_qubits(), 8);
  EXPECT_EQ(make_device("iontrap:6").graph.num_qubits(), 6);
}

TEST(CliDeviceRegistry, RejectsBadSpecs) {
  // The same UsageError type unknown routers and mappings throw.
  EXPECT_THROW(make_device("melbourne"), UsageError);
  EXPECT_THROW(make_device("grid:3"), UsageError);
  EXPECT_THROW(make_device("grid:0x4"), UsageError);
  EXPECT_THROW(make_device("heavyhex:4"), UsageError);
  EXPECT_THROW(make_device("linear:-2"), UsageError);
  EXPECT_THROW(make_device("grid"), UsageError);     // missing parameter
  EXPECT_THROW(make_device("tokyo:3"), UsageError);  // preset with parameter
}

TEST(CliDeviceRegistry, UnknownDeviceListsRegisteredSpecs) {
  // Matching the unknown-router behavior: the message enumerates every
  // registered spec, so a newly registered device appears without edits.
  try {
    make_device("melbourne");
    FAIL() << "expected UsageError";
  } catch (const UsageError& e) {
    EXPECT_EQ(std::string(e.what()),
              "unknown device 'melbourne' (expected "
              "q16|tokyo|enfield|sycamore|yorktown|grid-50x50|grid:RxC|"
              "linear:N|ring:N|heavyhex:D|octagons:N|iontrap:N|"
              "file:PATH.json)");
  }
}

TEST(CliDeviceRegistry, AliasesResolveToTheSameDevice) {
  EXPECT_EQ(make_device("q20").fingerprint(),
            make_device("tokyo").fingerprint());
  EXPECT_EQ(make_device("ibm_q16").fingerprint(),
            make_device("q16").fingerprint());
  EXPECT_EQ(make_device("6x6").fingerprint(),
            make_device("enfield").fingerprint());
}

TEST(CliDeviceRegistry, FileSpecLoadsJsonDeviceDescriptions) {
  const fs::path dir = temp_dir("codar_file_device");
  const fs::path path = dir / "dev.json";
  {
    std::ofstream out(path);
    out << R"({"name": "tiny", "qubits": 3, "edges": [[0, 1], [1, 2]]})";
  }
  const arch::Device device = make_device("file:" + path.string());
  EXPECT_EQ(device.name, "tiny");
  EXPECT_EQ(device.graph.num_qubits(), 3);
  EXPECT_TRUE(device.graph.connected(0, 1));
  EXPECT_THROW(make_device("file:" + (dir / "missing.json").string()),
               std::invalid_argument);
  EXPECT_THROW(make_device("file"), UsageError);  // missing path
}

// -- Single-circuit routing -------------------------------------------------

TEST(CliDriver, RoutedOutputParsesAndVerifies) {
  const arch::Device device = make_device("tokyo");
  Options opts;
  const RouteReport report = pipeline::route_circuit(
      workloads::cuccaro_adder(4), device, opts, /*keep_qasm=*/true);
  EXPECT_TRUE(report.error.empty()) << report.error;
  EXPECT_TRUE(report.verified);
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(report.gates_out, report.gates_in + report.swaps);
  EXPECT_GE(report.depth_out, report.depth_in);

  // The emitted QASM must round-trip through our own parser and stay
  // hardware-compliant.
  const ir::Circuit reparsed = qasm::parse(report.routed_qasm);
  EXPECT_TRUE(ir::is_two_qubit_lowered(reparsed));
  EXPECT_EQ(reparsed.size(), report.gates_out);
  for (const ir::Gate& g : reparsed.gates()) {
    if (g.num_qubits() == 2) {
      EXPECT_TRUE(device.graph.connected(g.qubit(0), g.qubit(1)))
          << qasm::to_qasm(reparsed);
    }
  }
}

TEST(CliDriver, AllThreeRoutersVerify) {
  const arch::Device device = make_device("q16");
  const ir::Circuit circuit = workloads::qft(6);
  for (const std::string router : {"codar", "sabre", "astar"}) {
    Options opts;
    opts.router = router;
    const RouteReport report =
        pipeline::route_circuit(circuit, device, opts, /*keep_qasm=*/false);
    EXPECT_TRUE(report.ok()) << router << ": " << report.error;
    EXPECT_TRUE(report.verified) << router;
  }
}

TEST(CliDriver, TimingFieldIsOptIn) {
  const arch::Device device = make_device("q16");
  const ir::Circuit circuit = workloads::qft(6);
  Options opts;
  const RouteReport report =
      pipeline::route_circuit(circuit, device, opts, /*keep_qasm=*/false);
  // Default JSON carries the deterministic stats only; --timing adds the
  // (nondeterministic) per-route wall time.
  const std::string plain = pipeline::to_json(report, opts);
  EXPECT_EQ(plain.find("route_us"), std::string::npos) << plain;
  EXPECT_NE(plain.find("\"gates_routed\": "), std::string::npos) << plain;
  EXPECT_NE(plain.find("\"barriers\": 0"), std::string::npos) << plain;
  Options timed = opts;
  timed.timing = true;
  const std::string with_timing = pipeline::to_json(report, timed);
  EXPECT_NE(with_timing.find("\"route_us\": "), std::string::npos)
      << with_timing;
}

TEST(CliOptions, ParsesTimingFlag) {
  EXPECT_FALSE(parse_args({"a.qasm"}).timing);
  EXPECT_TRUE(parse_args({"--timing", "a.qasm"}).timing);
}

TEST(CliDriver, ReportsOversizedCircuitAsError) {
  Options opts;
  const RouteReport report = pipeline::route_circuit(
      workloads::ghz(8), make_device("yorktown"), opts, /*keep_qasm=*/false);
  EXPECT_FALSE(report.ok());
  EXPECT_NE(report.error.find("qubits"), std::string::npos) << report.error;
}

TEST(CliDriver, RunCliEndToEnd) {
  const fs::path dir = temp_dir("codar_cli_single");
  const fs::path input = dir / "bv.qasm";
  write_qasm_file(input, workloads::bernstein_vazirani(5, 0b10110));

  std::istringstream in;
  std::ostringstream out;
  std::ostringstream err;
  const int exit_code =
      run_cli({input.string(), "--device", "tokyo"}, in, out, err);
  EXPECT_EQ(exit_code, 0) << err.str();

  // stdout is the routed program, stderr the JSON stats.
  const ir::Circuit routed = qasm::parse(out.str());
  EXPECT_GT(routed.size(), 0u);
  EXPECT_NE(err.str().find("\"verified\": true"), std::string::npos)
      << err.str();
  EXPECT_NE(err.str().find("\"router\": \"codar\""), std::string::npos);
}

TEST(CliDriver, RunCliReportsParseErrors) {
  const fs::path dir = temp_dir("codar_cli_bad");
  const fs::path input = dir / "bad.qasm";
  std::ofstream(input) << "OPENQASM 2.0;\nqreg q[2];\nnot_a_gate q[0];\n";

  std::istringstream in;
  std::ostringstream out;
  std::ostringstream err;
  // A load failure is a per-circuit failure (exit 1, JSON error report),
  // not a usage error (exit 2) — same contract as batch mode.
  EXPECT_EQ(run_cli({input.string()}, in, out, err), 1);
  EXPECT_NE(err.str().find("\"error\": "), std::string::npos) << err.str();
  EXPECT_NE(err.str().find("\"verified\": false"), std::string::npos);
}

TEST(CliDriver, LostOutputIsAWriteError) {
  const fs::path dir = temp_dir("codar_cli_lost_output");
  const fs::path input = dir / "ghz.qasm";
  write_qasm_file(input, workloads::ghz(4));

  // A stream that takes no bytes, standing in for a closed stdout.
  std::istringstream in;
  std::ostream lost(nullptr);
  std::ostringstream err;
  EXPECT_EQ(run_cli({input.string(), "--device", "tokyo"}, in, lost, err), 2);
  EXPECT_NE(err.str().find("error: cannot write stdout"), std::string::npos)
      << err.str();
}

/// Runs `args` with a stdout that takes no bytes; returns the exit code
/// and checks that the loss was reported.
int run_with_lost_stdout(const std::vector<std::string>& args) {
  std::istringstream in;
  std::ostream lost(nullptr);
  std::ostringstream err;
  const int code = run_cli(args, in, lost, err);
  EXPECT_NE(err.str().find("error: cannot write stdout"), std::string::npos)
      << err.str();
  return code;
}

TEST(CliDriver, LostDeviceListIsAWriteError) {
  EXPECT_EQ(run_with_lost_stdout({"--list-devices"}), 2);
}

TEST(CliDriver, LostRouterListIsAWriteError) {
  EXPECT_EQ(run_with_lost_stdout({"--list-routers"}), 2);
}

TEST(CliDriver, LostMappingListIsAWriteError) {
  EXPECT_EQ(run_with_lost_stdout({"--list-mappings"}), 2);
}

TEST(CliDriver, LostDeviceDescriptionIsAWriteError) {
  EXPECT_EQ(run_with_lost_stdout({"--describe-device", "tokyo"}), 2);
}

TEST(CliDriver, LostHelpIsAWriteError) {
  EXPECT_EQ(run_with_lost_stdout({"--help"}), 2);
}

TEST(CliDriver, LostServeHelpIsAWriteError) {
  EXPECT_EQ(run_with_lost_stdout({"serve", "--help"}), 2);
}

TEST(CliDriver, LostServeResponsesAreAWriteError) {
  std::istringstream in(R"({"id": 1, "suite_name": "ghz_3"})" "\n");
  std::ostream lost(nullptr);
  std::ostringstream err;
  EXPECT_EQ(run_cli({"serve"}, in, lost, err), 2);
  EXPECT_NE(err.str().find("error: cannot write stdout"), std::string::npos)
      << err.str();
}

TEST(CliDriver, FullDiskIsAWriteError) {
  // /dev/full opens fine and fails every write with ENOSPC, so the loss
  // only shows once the bytes are flushed.
  if (!fs::exists("/dev/full")) GTEST_SKIP() << "no /dev/full";
  const fs::path dir = temp_dir("codar_cli_full_disk");
  const fs::path input = dir / "ghz.qasm";
  write_qasm_file(input, workloads::ghz(4));

  std::istringstream in;
  std::ostringstream out;
  std::ostringstream err;
  EXPECT_EQ(run_cli({input.string(), "--device", "tokyo", "-o", "/dev/full"},
                    in, out, err),
            2);
  EXPECT_NE(err.str().find("error: cannot write /dev/full"), std::string::npos)
      << err.str();

  std::ostringstream batch_err;
  EXPECT_EQ(run_cli({"--batch", dir.string(), "--device", "tokyo", "--stats",
                     "/dev/full"},
                    in, out, batch_err),
            2);
  EXPECT_NE(batch_err.str().find("error: cannot write /dev/full"),
            std::string::npos)
      << batch_err.str();
  EXPECT_EQ(batch_err.str().find("circuits routed"), std::string::npos)
      << batch_err.str();
}

// -- Batch mode -------------------------------------------------------------

std::vector<workloads::BenchmarkSpec> batch_jobs() {
  std::vector<workloads::BenchmarkSpec> jobs;
  jobs.push_back({"ghz10", workloads::ghz(10)});
  jobs.push_back({"qft7", workloads::qft(7)});
  jobs.push_back({"adder3", workloads::cuccaro_adder(3)});
  jobs.push_back({"qaoa10", workloads::qaoa_maxcut(10, 2, 7)});
  jobs.push_back({"random12", workloads::random_circuit(12, 300, 0.4, 11)});
  jobs.push_back({"simon8", workloads::simon(4, 0b1011)});
  return jobs;
}

TEST(CliBatch, StatsAreByteIdenticalAcrossThreadCounts) {
  const arch::Device device = make_device("tokyo");
  Options one;
  one.threads = 1;
  Options eight;
  eight.threads = 8;

  const std::vector<RouteReport> reports_one =
      run_batch(batch_jobs(), device, one);
  const std::vector<RouteReport> reports_eight =
      run_batch(batch_jobs(), device, eight);
  ASSERT_EQ(reports_one.size(), reports_eight.size());
  for (std::size_t i = 0; i < reports_one.size(); ++i) {
    EXPECT_EQ(pipeline::to_json(reports_one[i], one),
              pipeline::to_json(reports_eight[i], eight));
    EXPECT_TRUE(reports_one[i].ok()) << reports_one[i].error;
  }
}

TEST(CliBatch, RunCliBatchDirectoryAcrossThreads) {
  const fs::path dir = temp_dir("codar_cli_batch");
  write_qasm_file(dir / "a_ghz.qasm", workloads::ghz(8));
  write_qasm_file(dir / "b_qft.qasm", workloads::qft(6));
  write_qasm_file(dir / "c_adder.qasm", workloads::cuccaro_adder(3));

  auto run_with_threads = [&](const std::string& threads) {
    std::istringstream in;
    std::ostringstream out;
    std::ostringstream err;
    const int exit_code =
        run_cli({"--batch", dir.string(), "--device", "q16", "--threads",
                 threads},
                in, out, err);
    EXPECT_EQ(exit_code, 0) << err.str();
    return out.str();
  };
  const std::string stats_one = run_with_threads("1");
  const std::string stats_eight = run_with_threads("8");
  EXPECT_EQ(stats_one, stats_eight);
  // Directory scan is sorted, so report order is stable by filename.
  EXPECT_LT(stats_one.find("a_ghz"), stats_one.find("b_qft"));
  EXPECT_LT(stats_one.find("b_qft"), stats_one.find("c_adder"));
}

TEST(CliBatch, LoadFailuresKeepTheirSlotAndFailTheRun) {
  const fs::path dir = temp_dir("codar_cli_batch_bad");
  write_qasm_file(dir / "a_ok.qasm", workloads::ghz(4));
  std::ofstream(dir / "b_bad.qasm") << "OPENQASM 2.0;\nqreg q[1;\n";
  write_qasm_file(dir / "c_ok.qasm", workloads::qft(4));

  std::istringstream in;
  std::ostringstream out;
  std::ostringstream err;
  const int exit_code = run_cli({"--batch", dir.string(), "--device", "q16"},
                                in, out, err);
  EXPECT_EQ(exit_code, 1);
  EXPECT_NE(out.str().find("\"failed\": 1"), std::string::npos) << out.str();
  EXPECT_LT(out.str().find("a_ok"), out.str().find("b_bad"));
  EXPECT_LT(out.str().find("b_bad"), out.str().find("c_ok"));
}

}  // namespace
}  // namespace codar::cli
