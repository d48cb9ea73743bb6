#include "codar/cli/options.hpp"

#include <stdexcept>

#include "codar/arch/distance_oracle.hpp"

namespace codar::cli {

bool parse_routing_flag(Options& opts, const std::string& arg,
                        const std::function<std::string()>& value) {
  if (arg == "--device" || arg == "-d") {
    opts.device = value();
  } else if (arg == "--router" || arg == "-r") {
    // Validate eagerly so a typo fails at parse time with the registered
    // names, not at route time.
    opts.router = pipeline::RouterRegistry::instance().at(value()).name;
  } else if (arg == "--initial") {
    opts.mapping = pipeline::MappingRegistry::instance().at(value()).name;
  } else if (arg == "--threads" || arg == "-j") {
    opts.threads = pipeline::knob_at_least(arg, value(), 0);
  } else if (arg == "--set") {
    // Free-form knob for externally registered passes (see
    // RoutingSpec::extras); built-in knobs have dedicated flags.
    const std::string kv = value();
    const std::size_t eq = kv.find('=');
    if (eq == std::string::npos || eq == 0) {
      throw pipeline::UsageError("--set expects KEY=VALUE, got '" + kv + "'");
    }
    opts.set_extra(kv.substr(0, eq), kv.substr(eq + 1));
  } else if (arg == "--distance-oracle") {
    // Process-wide distance-backend override, applied at parse time: it
    // only changes how distances are computed (memory/latency), never
    // their values, so it is deliberately not part of Options or any
    // route-cache key — and not accepted on untrusted serve request
    // lines, only on the trusted command line.
    try {
      arch::set_default_distance_policy(arch::parse_distance_policy(value()));
    } catch (const std::invalid_argument& e) {
      throw pipeline::UsageError(e.what());
    }
  } else if (arg == "--no-verify") {
    opts.verify = false;
  } else if (arg == "--timing") {
    opts.timing = true;
  } else if (arg == "--peephole") {
    opts.peephole = true;
  } else {
    // Pass-specific knobs (--no-context, --window, --seed, ...) belong to
    // whichever registered pass claimed them.
    return pipeline::RouterRegistry::instance().parse_knob(opts, arg,
                                                           value) ||
           pipeline::MappingRegistry::instance().parse_knob(opts, arg,
                                                            value);
  }
  return true;
}

Options parse_args(const std::vector<std::string>& args) {
  Options opts;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= args.size()) {
        throw pipeline::UsageError(arg + " expects a value");
      }
      return args[++i];
    };
    if (parse_routing_flag(opts, arg, value)) {
      continue;
    } else if (arg == "--help" || arg == "-h") {
      opts.help = true;
    } else if (arg == "--list-devices") {
      opts.list_devices = true;
    } else if (arg == "--describe-device") {
      opts.describe_device = value();
    } else if (arg == "--list-routers") {
      opts.list_routers = true;
    } else if (arg == "--list-mappings") {
      opts.list_mappings = true;
    } else if (arg == "--batch") {
      opts.batch_dir = value();
    } else if (arg == "--suite") {
      opts.suite = true;
    } else if (arg == "--output" || arg == "-o") {
      opts.output_path = value();
    } else if (arg == "--stats") {
      opts.stats_path = value();
    } else if (!arg.empty() && arg[0] == '-') {
      throw pipeline::UsageError("unknown flag '" + arg + "'");
    } else {
      opts.inputs.push_back(arg);
    }
  }
  if (opts.help || opts.list_devices || opts.list_routers ||
      opts.list_mappings || !opts.describe_device.empty()) {
    return opts;
  }
  const int modes = static_cast<int>(!opts.inputs.empty()) +
                    static_cast<int>(!opts.batch_dir.empty()) +
                    static_cast<int>(opts.suite);
  if (modes == 0) {
    throw pipeline::UsageError(
        "nothing to route: give .qasm files, --batch DIR, or --suite");
  }
  if (modes > 1) {
    throw pipeline::UsageError(
        "pick one mode: positional files, --batch, or --suite");
  }
  if (!opts.output_path.empty() && opts.inputs.size() != 1) {
    throw pipeline::UsageError("-o/--output requires exactly one input file");
  }
  return opts;
}

std::string usage() {
  return R"(codar — contextual duration-aware qubit mapping (DAC 2020)

usage:
  codar [options] FILE.qasm...       route the given OpenQASM 2.0 files
  codar [options] --batch DIR        route every *.qasm under DIR (parallel)
  codar [options] --suite            route the built-in 71-benchmark suite
  codar serve [options]              NDJSON routing service with a route
                                     cache (see codar serve --help)
  codar --list-devices               print every device spec
  codar --describe-device SPEC       print one device's shape + fingerprint
  codar --list-routers               print every registered routing pass
  codar --list-mappings              print every initial-mapping strategy

modes and I/O:
  -o, --output FILE     routed QASM destination (single input only; default
                        stdout)
      --stats FILE      JSON statistics destination (default: stderr for a
                        single input, stdout for batch/suite)
      --threads, -j N   batch worker threads (0 = hardware concurrency)

routing:
  -d, --device SPEC     target device (default tokyo); see --list-devices.
                        file:PATH.json loads a JSON device description
                        (graph + durations/fidelities + calibration; see
                        README "Device files")
  -r, --router NAME     routing pass (default codar); see --list-routers
      --initial NAME    initial mapping (default sabre); see --list-mappings
      --seed N          initial-mapping RNG seed (default 17)
      --mapping-rounds N  SABRE reverse-traversal rounds (default 3; >= 1)
      --mapping-horizon N
                        routed two-qubit gates the SABRE layout search
                        reads from the circuit's start (default 500;
                        0 = the whole circuit, as published)
      --peephole        run the peephole cleanup pass before routing
      --set KEY=VALUE   free-form knob for externally registered passes
                        (read via RoutingSpec::extra; cache-key relevant)
      --distance-oracle MODE
                        distance backend: auto (default; dense matrix up
                        to 1024 qubits, on-demand above), dense,
                        on-demand, or landmark. Affects memory and speed
                        only — routed output is identical for every MODE
      --no-verify       skip the routing verifier
      --timing          add per-route and per-stage wall times (route_us,
                        stage_us) to the JSON stats; off by default so
                        stats stay bit-identical across runs and thread
                        counts

CODAR ablation knobs:
      --no-context --no-duration --no-commutativity --no-fine-priority
      --window N        commutative-front scan cap (<=0 unbounded)
      --stagnation N    forced SWAPs before the shortest-path escape

codar-fid objective weights (see README "Routing objectives"):
      --alpha X         distance term weight (default 1)
      --beta X          log-fidelity term weight (default 5; >= 0)
      --gamma X         decoherence term weight (default 1; >= 0)
                        beta=0 gamma=0 routes byte-identically to codar
)";
}

}  // namespace codar::cli
