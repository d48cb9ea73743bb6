#include "codar/cli/driver.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <optional>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "codar/cli/options.hpp"
#include "codar/common/json.hpp"
#include "codar/pipeline/device_registry.hpp"
#include "codar/pipeline/registry.hpp"
#include "codar/qasm/parser.hpp"
#include "codar/service/server.hpp"

namespace codar::cli {

std::vector<pipeline::RouteReport> run_batch(
    const std::vector<workloads::BenchmarkSpec>& jobs,
    const arch::Device& device, const pipeline::RoutingSpec& spec) {
  std::vector<pipeline::RouteReport> results(jobs.size());
  if (jobs.empty()) return results;
  int threads = spec.threads > 0
                    ? spec.threads
                    : static_cast<int>(std::thread::hardware_concurrency());
  threads = std::clamp<int>(threads, 1, static_cast<int>(jobs.size()));

  // The distance oracle is built lazily on first use. The lazy build is
  // race-free (mutex + published atomic, see CouplingGraph::oracle()), but
  // paying it here, while still single-threaded, keeps the build cost out
  // of the contended fan-out below.
  device.graph.prepare();

  // Work stealing off one atomic counter; each worker routes with its own
  // router instance (constructed inside route_circuit) and writes only its
  // own results[i] slots, so the pool needs no mutex at all: concurrent
  // jobs share nothing mutable but `next`, and the joins below publish the
  // slot writes to the caller.
  std::atomic<std::size_t> next{0};
  auto worker = [&]() {
    for (;;) {
      const std::size_t i = next.fetch_add(1);
      if (i >= jobs.size()) return;
      results[i] = pipeline::route_circuit(jobs[i].circuit, device, spec,
                                           /*keep_qasm=*/false);
      results[i].name = jobs[i].name;
    }
  };
  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(threads) - 1);
  for (int t = 1; t < threads; ++t) pool.emplace_back(worker);
  worker();
  for (std::thread& t : pool) t.join();
  return results;
}

namespace {

/// Writes `text` to `path`, or to `fallback` (named `fallback_name` in
/// the error) when path is empty. Flushes, so a full disk or a closed
/// pipe throws here instead of losing the output silently.
void write_text(const std::string& path, const std::string& text,
                std::ostream& fallback, const char* fallback_name) {
  std::ofstream file;
  if (!path.empty()) file.open(path);
  std::ostream& out = path.empty() ? fallback : file;
  out << text;
  if (!text.empty() && text.back() != '\n') out << '\n';
  out.flush();
  if (!out) {
    throw std::runtime_error("cannot write " +
                             (path.empty() ? fallback_name : path));
  }
}

/// The batch stats document: every report's JSON object plus a summary.
std::string batch_json(const std::vector<pipeline::RouteReport>& reports,
                       const Options& opts) {
  std::size_t failed = 0;
  std::size_t swaps = 0;
  std::size_t route_us = 0;
  long long depth_in = 0;
  long long depth_out = 0;
  double log_esp = 0.0;  ///< Σ log ESP = log of the suite-wide product.
  std::ostringstream out;
  out << "{\"results\": [";
  for (std::size_t i = 0; i < reports.size(); ++i) {
    if (i > 0) out << ",";
    out << "\n  " << pipeline::to_json(reports[i], opts);
    if (!reports[i].ok()) ++failed;
    swaps += reports[i].swaps;
    route_us += reports[i].route_us;
    depth_in += reports[i].depth_in;
    depth_out += reports[i].depth_out;
    log_esp += reports[i].log_esp;
  }
  out << "\n], \"summary\": {\"total\": " << reports.size()
      << ", \"failed\": " << failed << ", \"swaps\": " << swaps;
  if (opts.timing) out << ", \"route_us\": " << route_us;
  out << ", \"weighted_depth_in\": " << depth_in
      << ", \"weighted_depth_out\": " << depth_out
      << ", \"log_esp\": " << common::json_number(log_esp) << "}}";
  return out.str();
}

/// One "NAME<TAB>description" line per registry entry.
template <typename Entry>
std::string listing(const std::vector<Entry>& entries,
                    std::string Entry::*name) {
  std::string text;
  for (const Entry& entry : entries) {
    text += entry.*name + "\t" + entry.description + "\n";
  }
  return text;
}

/// One deterministic JSON line per device: shape plus the content
/// fingerprint the serve route cache keys on. scripts/
/// check_device_files.sh diffs two runs of this to pin determinism.
std::string describe_device(const std::string& spec) {
  const arch::Device device = pipeline::DeviceRegistry::instance().make(spec);
  char fp[32];
  std::snprintf(fp, sizeof(fp), "0x%016llx",
                static_cast<unsigned long long>(device.fingerprint()));
  std::ostringstream out;
  out << "{\"name\": " << common::json_quote(device.name)
      << ", \"qubits\": " << device.graph.num_qubits()
      << ", \"edges\": " << device.graph.num_edges() << ", \"coordinates\": "
      << (device.graph.has_coordinates() ? "true" : "false")
      << ", \"calibrated\": "
      << (device.calibration.empty() ? "false" : "true")
      << ", \"coherence\": "
      << (device.coherence.any_finite() ? "true" : "false")
      << ", \"fingerprint\": \"" << fp << "\"}\n";
  return out.str();
}

int run_single(const Options& opts, const arch::Device& device,
               std::ostream& out, std::ostream& err) {
  pipeline::RouteReport report;
  try {
    // Load failures get the same JSON error report as in batch mode (so
    // scripts can rely on the stats output existing, and exit 1 means
    // "this circuit failed" while 2 stays "bad invocation").
    const ir::Circuit circuit = qasm::parse_file(opts.inputs.front());
    report = pipeline::route_circuit(circuit, device, opts,
                                     /*keep_qasm=*/true);
  } catch (const std::exception& e) {
    report.error = e.what();
  }
  if (report.name.empty()) report.name = opts.inputs.front();
  if (report.error.empty()) {
    write_text(opts.output_path, report.routed_qasm, out, "stdout");
  } else {
    err << "error: " << report.name << ": " << report.error << "\n";
  }
  write_text(opts.stats_path, pipeline::to_json(report, opts), err, "stderr");
  return report.ok() ? 0 : 1;
}

int run_many(const Options& opts, const arch::Device& device,
             std::ostream& out, std::ostream& err) {
  std::vector<workloads::BenchmarkSpec> jobs;
  // Jobs that already failed at load time, keyed by output position.
  std::vector<std::optional<pipeline::RouteReport>> preloaded;

  auto add_file = [&](const std::filesystem::path& path) {
    pipeline::RouteReport failure;
    failure.name = path.filename().string();
    try {
      ir::Circuit circuit = qasm::parse_file(path.string());
      circuit.set_name(path.filename().string());
      jobs.push_back({path.filename().string(), std::move(circuit)});
      preloaded.emplace_back(std::nullopt);
      return;
    } catch (const std::exception& e) {
      failure.error = e.what();
    }
    preloaded.emplace_back(std::move(failure));
  };

  if (opts.suite) {
    jobs = workloads::benchmark_suite();
    preloaded.assign(jobs.size(), std::nullopt);
  } else if (!opts.batch_dir.empty()) {
    std::vector<std::filesystem::path> paths;
    for (const auto& entry :
         std::filesystem::directory_iterator(opts.batch_dir)) {
      if (entry.is_regular_file() && entry.path().extension() == ".qasm") {
        paths.push_back(entry.path());
      }
    }
    std::sort(paths.begin(), paths.end());
    if (paths.empty()) {
      err << "error: no .qasm files under " << opts.batch_dir << "\n";
      return 2;
    }
    for (const auto& path : paths) add_file(path);
  } else {
    for (const std::string& input : opts.inputs) add_file(input);
  }

  const std::vector<pipeline::RouteReport> routed =
      run_batch(jobs, device, opts);

  // Merge routed results back into input order around the load failures.
  std::vector<pipeline::RouteReport> reports;
  reports.reserve(preloaded.size());
  std::size_t next_routed = 0;
  for (auto& slot : preloaded) {
    if (slot.has_value()) {
      reports.push_back(std::move(*slot));
    } else {
      reports.push_back(routed[next_routed++]);
    }
  }

  write_text(opts.stats_path, batch_json(reports, opts), out, "stdout");
  const std::size_t failed = static_cast<std::size_t>(
      std::count_if(reports.begin(), reports.end(),
                    [](const pipeline::RouteReport& r) { return !r.ok(); }));
  err << reports.size() - failed << "/" << reports.size() << " circuits "
      << "routed on " << opts.device << " with " << opts.router
      << (failed ? " (FAILURES above)" : "") << "\n";
  return failed == 0 ? 0 : 1;
}

}  // namespace

int run_cli(const std::vector<std::string>& args, std::istream& in,
            std::ostream& out, std::ostream& err) {
  const bool serve = !args.empty() && args.front() == "serve";
  const std::string help_text = serve ? serve_usage() : usage();
  Options opts;
  service::ServeOptions serve_opts;
  try {
    if (serve) {
      serve_opts = parse_serve_args({args.begin() + 1, args.end()});
    } else {
      opts = parse_args(args);
    }
  } catch (const pipeline::UsageError& e) {
    err << "error: " << e.what() << "\n\n" << help_text;
    return 2;
  }
  if (serve && !serve_opts.help) {
    return service::run_serve(serve_opts, in, out, err);
  }
  try {
    // Help and listings go through write_text like routed output, so a
    // lost stdout is a write error here too.
    if (opts.help || serve_opts.help) {
      write_text("", help_text, out, "stdout");
    } else if (opts.list_devices) {
      write_text("", listing(pipeline::DeviceRegistry::instance().entries(),
                             &pipeline::DeviceEntry::spec),
                 out, "stdout");
    } else if (!opts.describe_device.empty()) {
      write_text("", describe_device(opts.describe_device), out, "stdout");
    } else if (opts.list_routers) {
      write_text("", listing(pipeline::RouterRegistry::instance().entries(),
                             &pipeline::RouterEntry::name),
                 out, "stdout");
    } else if (opts.list_mappings) {
      write_text("", listing(pipeline::MappingRegistry::instance().entries(),
                             &pipeline::MappingEntry::name),
                 out, "stdout");
    } else {
      const arch::Device device =
          pipeline::DeviceRegistry::instance().make(opts.device);
      if (!opts.batch_dir.empty() || opts.suite || opts.inputs.size() > 1) {
        return run_many(opts, device, out, err);
      }
      return run_single(opts, device, out, err);
    }
    return 0;
  } catch (const std::exception& e) {
    err << "error: " << e.what() << "\n";
    return 2;
  }
}

}  // namespace codar::cli
