// perfbench: the whole-system benchmark driver.
//
//   perfbench --workload compile|serve|restart --seed N --seconds S --trace 0|1
//
// Runs one workload from the checkout root, checks every output, and
// prints one JSON object as the last stdout line: the end-to-end metrics
// with --trace 0, the per-layer metrics of the traced run with --trace 1.
// Scratch files (cache directories, span dumps, run summaries) go under
// .bench_out/.

#include <cmath>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <span>
#include <string>

#include "bench.hpp"

namespace {

using perfbench::json_number;
using perfbench::json_quote;

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// The end-to-end metrics every untraced run prints (BENCHMARK.json's
/// "end_to_end"), and the per-layer metrics every traced run prints
/// ("per_layer"). README.md defines each one per workload.
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},          {"compile_s", "s"},          {"compile_ms_p50", "ms"},
    {"compile_ms_p95", "ms"},  {"latency_ms_p50", "ms"},    {"latency_ms_p99", "ms"},
    {"throughput_rps", "1/s"}, {"success_share", "ratio"},  {"peak_rss_mb", "MB"},
    {"depth_ratio_geomean", "ratio"}, {"swaps_total", "count"}, {"neg_log_esp_mean", "nats"},
};
constexpr MetricSpec kPerLayer[] = {
    {"qasm.parse_s", "s"},          {"qasm.parse_bytes", "bytes"},  {"qasm.render_s", "s"},
    {"ir.lower_s", "s"},            {"ir.fingerprint_s", "s"},      {"arch.device_s", "s"},
    {"pipeline.build_s", "s"},      {"sabre.initial_s", "s"},       {"core.route_s", "s"},
    {"core.verify_s", "s"},         {"core.swaps", "count"},        {"core.forced_swaps", "count"},
    {"core.escape_swaps", "count"}, {"core.cycles", "count"},       {"schedule.asap_s", "s"},
    {"cost.esp_s", "s"},            {"pipeline.self_s", "s"},       {"render.stats_s", "s"},
    {"service.parse_request_s", "s"}, {"service.requests", "count"}, {"service.routed", "count"},
    {"service.errors", "count"},    {"transport.wait_ms_p50", "ms"}, {"cache.lookup_s", "s"},
    {"cache.mem_hits", "count"},    {"cache.disk_hits", "count"},   {"cache.misses", "count"},
    {"cache.hit_ratio", "ratio"},   {"cache.evictions", "count"},   {"store.open_s", "s"},
    {"store.recovered", "count"},   {"store.get_s", "s"},           {"store.put_s", "s"},
    {"store.appends", "count"},     {"store.file_bytes", "bytes"},  {"store.decode_s", "s"},
    {"store.encode_s", "s"},        {"trace.overhead_s", "s"},      {"loadgen.late_ms_max", "ms"},
};

int usage() {
  std::cerr << "usage: perfbench --workload compile|serve|restart --seed N "
               "--seconds S --trace 0|1\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunConfig cfg;
  if (argc % 2 != 1) return usage();
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    try {
      if (flag == "--workload") {
        cfg.workload = value;
      } else if (flag == "--seed") {
        cfg.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        cfg.seconds = std::stod(value);
      } else if (flag == "--trace") {
        cfg.trace = value == "1";
      } else {
        return usage();
      }
    } catch (const std::exception&) {
      return usage();
    }
  }
  if (!(cfg.seconds > 0)) return usage();

  perfbench::Result result;
  try {
    std::filesystem::create_directories(cfg.out_dir);
    if (cfg.workload == "compile") {
      result = perfbench::run_compile(cfg);
    } else if (cfg.workload == "serve" || cfg.workload == "restart") {
      result = perfbench::run_serve(cfg, cfg.workload == "restart");
    } else {
      return usage();
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << cfg.workload << " aborted: " << e.what() << "\n";
    return 1;
  }
  if (!cfg.trace) {
    result.set("success_share",
               static_cast<double>(result.attempted - result.failed) /
                   static_cast<double>(std::max<std::size_t>(result.attempted, 1)));
    result.set("peak_rss_mb", perfbench::peak_rss_mb());
  }

  // Print exactly the table's metrics, in its order. A per-layer metric
  // the workload never reaches (the service layers on compile, routing on
  // restart) is 0; an end-to-end metric must always be measured.
  bool complete = true;
  std::string metrics;
  for (const MetricSpec& spec : cfg.trace ? std::span<const MetricSpec>(kPerLayer)
                                          : std::span<const MetricSpec>(kEndToEnd)) {
    const auto it = result.metrics.find(spec.name);
    double value = it == result.metrics.end() ? 0.0 : it->second;
    if ((!cfg.trace && it == result.metrics.end()) || !std::isfinite(value)) {
      std::cerr << "perfbench: metric " << spec.name << " was not measured\n";
      complete = false;
      value = 0.0;
    }
    metrics += (metrics.empty() ? "" : ", ") + json_quote(spec.name) +
               ": {\"value\": " + json_number(value) + ", \"unit\": " + json_quote(spec.unit) +
               "}";
  }
  const bool correct = complete && result.failed == 0 && result.attempted > 0;

  // The run summary: deterministic facts for perfbench/selfcheck.py.
  std::ofstream summary(cfg.out_dir + "/summary-" + cfg.workload + "-" +
                        std::to_string(cfg.seed) + "-trace" + (cfg.trace ? "1" : "0") +
                        ".json");
  summary << "{\"valid\": " << (result.valid ? "true" : "false");
  for (const auto& [key, value] : result.facts) {
    summary << ", " << json_quote(key) << ": " << json_quote(value);
  }
  summary << "}\n";

  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << std::max<std::size_t>(result.attempted, 1)
            << ", \"failed\": " << result.failed << ", \"metrics\": {" << metrics << "}}"
            << std::endl;
  return 0;
}
