// End-to-end tests for `codar serve`: the full built-in suite round-trips
// with responses byte-identical to one-shot batch stats, a warm-cache
// rerun routes nothing, counters are exact, and error paths degrade into
// per-request error responses.

#include "codar/service/server.hpp"

#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "codar/arch/device_json.hpp"
#include "codar/cli/driver.hpp"
#include "codar/cli/options.hpp"
#include "codar/common/json.hpp"
#include "codar/pipeline/device_registry.hpp"
#include "codar/workloads/suite.hpp"

namespace codar::service {
namespace {

using common::Json;
using common::json_quote;
using pipeline::RouteReport;
using pipeline::UsageError;

/// Feeds `lines` to run_serve and returns the response lines.
std::vector<std::string> serve(const ServeOptions& opts,
                               const std::vector<std::string>& lines) {
  std::string input;
  for (const std::string& line : lines) input += line + "\n";
  std::istringstream in(input);
  std::ostringstream out;
  std::ostringstream err;
  EXPECT_EQ(run_serve(opts, in, out, err), 0) << err.str();

  std::vector<std::string> responses;
  std::istringstream splitter(out.str());
  std::string line;
  while (std::getline(splitter, line)) responses.push_back(line);
  return responses;
}

/// Indexes responses by their "id" value (rendered back to a JSON token).
std::map<std::string, std::string> by_id(
    const std::vector<std::string>& responses) {
  std::map<std::string, std::string> index;
  for (const std::string& line : responses) {
    const Json doc = Json::parse(line);
    const Json* id = doc.find("id");
    EXPECT_NE(id, nullptr) << line;
    std::string key = "null";
    if (id->is_number()) key = id->raw_number();
    if (id->is_string()) key = json_quote(id->as_string());
    EXPECT_EQ(index.count(key), 0u) << "duplicate id " << key;
    index[key] = line;
  }
  return index;
}

/// The byte span of the "result" object inside a response envelope.
std::string result_of(const std::string& response) {
  static const std::string marker = ", \"result\": ";
  const std::size_t pos = response.find(marker);
  EXPECT_NE(pos, std::string::npos) << response;
  if (pos == std::string::npos) return "";
  // The envelope's final '}' is the last byte.
  return response.substr(pos + marker.size(),
                         response.size() - pos - marker.size() - 1);
}

bool cached_flag(const std::string& response) {
  return Json::parse(response).find("cached")->as_bool();
}

TEST(Serve, SuiteRoundTripIsByteIdenticalToBatchAndWarmRerunRoutesNothing) {
  // The acceptance lock: serve the whole built-in suite, then serve it
  // again. Every result must equal the batch driver's stats byte-for-byte,
  // and the second pass must route zero circuits.
  ServeOptions sopts;
  sopts.defaults.device = "enfield";
  sopts.defaults.threads = 4;

  const std::vector<workloads::BenchmarkSpec> suite =
      workloads::benchmark_suite();

  std::vector<std::string> lines;
  for (std::size_t i = 0; i < suite.size(); ++i) {
    lines.push_back("{\"id\": " + std::to_string(i) +
                    ", \"suite_name\": " + json_quote(suite[i].name) + "}");
  }
  lines.push_back(R"({"id": "cold", "cmd": "stats"})");
  for (std::size_t i = 0; i < suite.size(); ++i) {
    lines.push_back("{\"id\": " + std::to_string(1000 + i) +
                    ", \"suite_name\": " + json_quote(suite[i].name) + "}");
  }
  lines.push_back(R"({"id": "warm", "cmd": "stats"})");

  const std::vector<std::string> responses = serve(sopts, lines);
  ASSERT_EQ(responses.size(), 2 * suite.size() + 2);
  const std::map<std::string, std::string> index = by_id(responses);

  // Reference: the one-shot batch driver over the same jobs and options.
  const arch::Device device =
      pipeline::DeviceRegistry::instance().make("enfield");
  const std::vector<RouteReport> reference =
      cli::run_batch(suite, device, sopts.defaults);
  for (std::size_t i = 0; i < suite.size(); ++i) {
    const std::string expected =
        pipeline::to_json(reference[i], sopts.defaults);
    ASSERT_TRUE(index.count(std::to_string(i))) << suite[i].name;
    ASSERT_TRUE(index.count(std::to_string(1000 + i))) << suite[i].name;
    // Cold and warm responses both carry byte-identical batch stats.
    EXPECT_EQ(result_of(index.at(std::to_string(i))), expected)
        << suite[i].name;
    EXPECT_EQ(result_of(index.at(std::to_string(1000 + i))), expected)
        << suite[i].name;
    // The warm pass is served entirely from the cache.
    EXPECT_TRUE(cached_flag(index.at(std::to_string(1000 + i))))
        << suite[i].name;
  }

  // Counter bookkeeping. Suite entries are keyed by content, so should a
  // pair of benchmarks share a fingerprint the duplicate coalesces into a
  // hit; count unique fingerprints rather than assuming 71.
  std::set<std::uint64_t> unique;
  for (const workloads::BenchmarkSpec& spec : suite) {
    unique.insert(spec.circuit.fingerprint());
  }
  const Json cold = Json::parse(index.at("\"cold\""));
  EXPECT_EQ(cold.find("requests")->as_number(),
            static_cast<double>(suite.size()));
  EXPECT_EQ(cold.find("routed")->as_number(),
            static_cast<double>(unique.size()));
  EXPECT_EQ(cold.find("cache")->find("misses")->as_number(),
            static_cast<double>(unique.size()));
  EXPECT_EQ(cold.find("cache")->find("entries")->as_number(),
            static_cast<double>(unique.size()));
  EXPECT_EQ(cold.find("cache")->find("evictions")->as_number(), 0.0);

  const Json warm = Json::parse(index.at("\"warm\""));
  EXPECT_EQ(warm.find("requests")->as_number(),
            static_cast<double>(2 * suite.size()));
  // The entire second pass hit the cache: routed did not move.
  EXPECT_EQ(warm.find("routed")->as_number(),
            static_cast<double>(unique.size()));
  EXPECT_EQ(warm.find("cache")->find("misses")->as_number(),
            static_cast<double>(unique.size()));
  EXPECT_EQ(warm.find("cache")->find("hits")->as_number(),
            static_cast<double>(2 * suite.size() - unique.size()));
}

TEST(Serve, ContentAddressingHitsAcrossDeviceSpecsAndNames) {
  ServeOptions sopts;
  sopts.defaults.threads = 1;  // deterministic request order

  const std::string ghz =
      "OPENQASM 2.0; include \\\"qelib1.inc\\\"; qreg q[3]; "
      "h q[0]; cx q[0],q[1]; cx q[1],q[2];";
  // grid:1x3 and linear:3 are structurally identical devices, and the
  // display name is excluded from the circuit fingerprint — so all three
  // requests share one cache entry.
  const std::vector<std::string> lines = {
      R"({"id": 1, "qasm": ")" + ghz + R"(", "device": "linear:3", "name": "a"})",
      R"({"id": 2, "qasm": ")" + ghz + R"(", "device": "linear:3", "name": "b"})",
      R"({"id": 3, "qasm": ")" + ghz + R"(", "device": "grid:1x3", "name": "a"})",
      R"({"id": 4, "cmd": "stats"})",
  };
  const std::map<std::string, std::string> index = by_id(serve(sopts, lines));

  EXPECT_FALSE(cached_flag(index.at("1")));
  EXPECT_TRUE(cached_flag(index.at("2")));
  EXPECT_TRUE(cached_flag(index.at("3")));

  // Each response still reports its own name and device spec.
  EXPECT_NE(index.at("2").find("\"name\": \"b\""), std::string::npos);
  EXPECT_NE(index.at("3").find("\"device\": \"grid:1x3\""),
            std::string::npos);

  const Json stats = Json::parse(index.at("4"));
  EXPECT_EQ(stats.find("routed")->as_number(), 1.0);
  EXPECT_EQ(stats.find("cache")->find("entries")->as_number(), 1.0);
}

TEST(Serve, DifferentOptionsNeverShareACacheEntry) {
  ServeOptions sopts;
  sopts.defaults.threads = 1;
  const std::vector<std::string> lines = {
      R"({"id": 1, "suite_name": "ghz_3"})",
      R"({"id": 2, "suite_name": "ghz_3", "router": "sabre"})",
      R"({"id": 3, "suite_name": "ghz_3", "options": {"seed": 99}})",
      R"({"id": 4, "suite_name": "ghz_3", "device": "q16"})",
      R"({"id": 5, "cmd": "stats"})",
  };
  const std::map<std::string, std::string> index = by_id(serve(sopts, lines));
  for (const std::string id : {"1", "2", "3", "4"}) {
    EXPECT_FALSE(cached_flag(index.at(id))) << id;
  }
  const Json stats = Json::parse(index.at("5"));
  EXPECT_EQ(stats.find("routed")->as_number(), 4.0);
  EXPECT_EQ(stats.find("cache")->find("entries")->as_number(), 4.0);
}

TEST(Serve, ErrorPathsProduceErrorResponses) {
  ServeOptions sopts;
  sopts.defaults.threads = 1;
  const std::vector<std::string> lines = {
      "this is not json",
      R"({"id": 1, "suite_name": "no_such_benchmark"})",
      R"({"id": 2, "qasm": "OPENQASM 2.0; qreg q[2"})",
      R"({"id": 3, "qasm": "x", "device": "no_such_device"})",
      R"({"id": 5, "suite_name": "ghz_3", "device": "no_such_device"})",
      R"({"id": "weird \"id\""})",
      R"({"id": 4, "cmd": "stats"})",
  };
  const std::vector<std::string> responses = serve(sopts, lines);
  ASSERT_EQ(responses.size(), lines.size());
  const std::map<std::string, std::string> index = by_id(responses);

  // Malformed line: error envelope with a null id.
  EXPECT_NE(index.at("null").find("\"error\""), std::string::npos);
  // Bad id-bearing requests echo the id (escaped correctly).
  EXPECT_NE(index.at("\"weird \\\"id\\\"\"").find("\"error\""),
            std::string::npos);
  // Unknown suite name / QASM parse failure / unknown device: per-request
  // error *results* in the batch schema, pinned byte for byte. The device
  // resolves before the circuit (id 3 names a bad device and a bad
  // program and reports the device), and an error carries the display
  // name a success would (id 5), so failures stay correlatable.
  const std::string tail =
      R"(, "qubits": 0, "gates_in": 0, "gates_out": 0, "gates_routed": 0, )"
      R"("barriers": 0, "swaps": 0, "forced_swaps": 0, "escape_swaps": 0, )"
      R"("cycles": 0, "makespan": 0, "weighted_depth_in": 0, )"
      R"("weighted_depth_out": 0, "est_success_probability": 1, )"
      R"("log_esp": 0, "verified": false}})";
  // The unknown-device message lists every registry preset; it is read
  // from the registry, so adding a preset does not touch this test.
  std::string unknown_device;
  try {
    pipeline::DeviceRegistry::instance().make("no_such_device");
  } catch (const UsageError& e) {
    unknown_device = e.what();
  }
  ASSERT_EQ(unknown_device.rfind("unknown device 'no_such_device' (", 0), 0u)
      << unknown_device;
  EXPECT_EQ(index.at("1"),
            R"({"id": 1, "cached": false, "result": {"name": )"
            R"("no_such_benchmark", "device": "tokyo", "router": "codar", )"
            R"("initial": "sabre", "error": "unknown suite benchmark )"
            R"('no_such_benchmark'")" +
                tail);
  EXPECT_EQ(index.at("2"),
            R"({"id": 2, "cached": false, "result": {"name": "", )"
            R"("device": "tokyo", "router": "codar", "initial": "sabre", )"
            R"("error": "qasm:1:23: expected ']', got ''")" +
                tail);
  EXPECT_EQ(index.at("3"),
            R"({"id": 3, "cached": false, "result": {"name": "", )"
            R"("device": "no_such_device", "router": "codar", )"
            R"("initial": "sabre", "error": )" +
                json_quote(unknown_device) + tail);
  EXPECT_EQ(index.at("5"),
            R"({"id": 5, "cached": false, "result": {"name": "ghz_3", )"
            R"("device": "no_such_device", "router": "codar", )"
            R"("initial": "sabre", "error": )" +
                json_quote(unknown_device) + tail);

  const Json stats = Json::parse(index.at("4"));
  EXPECT_EQ(stats.find("errors")->as_number(), 2.0);   // malformed lines
  EXPECT_EQ(stats.find("requests")->as_number(), 4.0);
  EXPECT_EQ(stats.find("routed")->as_number(), 0.0);
  // A request that does not resolve never reaches the cache.
  EXPECT_EQ(stats.find("cache")->find("hits")->as_number(), 0.0);
  EXPECT_EQ(stats.find("cache")->find("misses")->as_number(), 0.0);
}

TEST(Serve, TimingOptionKeepsCacheKeyButChangesRendering) {
  ServeOptions sopts;
  sopts.defaults.threads = 1;
  const std::vector<std::string> lines = {
      R"({"id": 1, "suite_name": "ghz_3"})",
      R"({"id": 2, "suite_name": "ghz_3", "options": {"timing": true}})",
  };
  const std::map<std::string, std::string> index = by_id(serve(sopts, lines));
  // timing is presentation-only: the second request hits the first's
  // entry, and only its rendering gains route_us.
  EXPECT_TRUE(cached_flag(index.at("2")));
  EXPECT_EQ(index.at("1").find("route_us"), std::string::npos);
  EXPECT_NE(index.at("2").find("route_us"), std::string::npos);
}

TEST(Serve, InlineDeviceObjectsShareTheCacheByContent) {
  ServeOptions sopts;
  sopts.defaults.threads = 1;

  // A request line is one JSON document; flatten the (pretty-printed)
  // device serialization onto it.
  auto one_line = [](std::string text) {
    for (char& c : text) {
      if (c == '\n') c = ' ';
    }
    return text;
  };
  const std::string enfield = one_line(device_to_json(arch::enfield_6x6()));
  arch::Device slow = arch::enfield_6x6();
  slow.calibration.set_duration_2q(0, 1, 16);
  const std::string calibrated = one_line(device_to_json(slow));

  const std::vector<std::string> lines = {
      R"({"id": 1, "suite_name": "qft_8", "device": "enfield"})",
      // Content-identical inline device: must hit the spec-string entry
      // (the cache keys on the device fingerprint, not its spelling).
      R"({"id": 2, "suite_name": "qft_8", "device": )" + enfield + "}",
      // A recalibrated device fingerprints differently: never aliased.
      R"({"id": 3, "suite_name": "qft_8", "device": )" + calibrated + "}",
      R"({"id": 4, "cmd": "stats"})",
  };
  const std::map<std::string, std::string> index = by_id(serve(sopts, lines));
  EXPECT_FALSE(cached_flag(index.at("1")));
  EXPECT_TRUE(cached_flag(index.at("2")));
  EXPECT_FALSE(cached_flag(index.at("3")));
  EXPECT_NE(index.at("3").find("\"verified\": true"), std::string::npos)
      << index.at("3");
  // The inline device's display name lands in the result's device field.
  EXPECT_NE(index.at("2").find("\"device\": \"Enfield 6x6\""),
            std::string::npos)
      << index.at("2");

  const Json stats = Json::parse(index.at("4"));
  EXPECT_EQ(stats.find("requests")->as_number(), 3.0);
  EXPECT_EQ(stats.find("routed")->as_number(), 2.0);
}

TEST(ServeArgs, ParseAndUsage) {
  const ServeOptions opts = cli::parse_serve_args(
      {"--device", "q16", "--threads", "3", "--cache-bytes", "1024",
       "--cache-shards", "2", "--no-verify"});
  EXPECT_EQ(opts.defaults.device, "q16");
  EXPECT_EQ(opts.defaults.threads, 3);
  EXPECT_EQ(opts.cache_bytes, 1024u);
  EXPECT_EQ(opts.cache_shards, 2);
  EXPECT_FALSE(opts.defaults.verify);

  EXPECT_THROW(cli::parse_serve_args({"--cache-bytes"}), UsageError);
  EXPECT_THROW(cli::parse_serve_args({"--cache-bytes", "lots"}),
               UsageError);
  EXPECT_THROW(cli::parse_serve_args({"--cache-shards", "0"}), UsageError);
  // 2^32 would truncate to int 0 past a naive >= 1 check.
  EXPECT_THROW(cli::parse_serve_args({"--cache-shards", "4294967296"}),
               UsageError);
  EXPECT_THROW(cli::parse_serve_args({"positional.qasm"}), UsageError);

  EXPECT_NE(cli::serve_usage().find("--cache-bytes"), std::string::npos);
}

TEST(ServeCli, HelpAndBadFlagsAndBadDevice) {
  std::istringstream in;
  std::ostringstream out;
  std::ostringstream err;
  EXPECT_EQ(cli::run_cli({"serve", "--help"}, in, out, err), 0);
  EXPECT_NE(out.str().find("codar serve"), std::string::npos);

  std::ostringstream err2;
  EXPECT_EQ(cli::run_cli({"serve", "--wat"}, in, out, err2), 2);
  EXPECT_NE(err2.str().find("unknown serve flag"), std::string::npos);

  std::ostringstream err3;
  EXPECT_EQ(cli::run_cli({"serve", "--device", "no_such"}, in, out, err3),
            2);
}

}  // namespace
}  // namespace codar::service
