#include "codar/cli/options.hpp"

#include <charconv>
#include <limits>
#include <stdexcept>
#include <type_traits>

#include "codar/pipeline/registry.hpp"
#include "codar/service/transport.hpp"

namespace codar::cli {

namespace {

/// Parses all of `value` as an integer of type T, or throws UsageError
/// naming `flag`.
template <typename T>
T parse_int(const std::string& flag, const std::string& value) {
  T result = 0;
  const auto [ptr, ec] =
      std::from_chars(value.data(), value.data() + value.size(), result);
  if (ec != std::errc() || ptr != value.data() + value.size()) {
    const char* what =
        std::is_signed_v<T> ? "an integer" : "a non-negative integer";
    throw pipeline::UsageError(flag + " expects " + what + ", got '" + value +
                               "'");
  }
  return result;
}

/// Tries to consume one routing flag into `spec`: the device, router,
/// thread and --set flags here, every knob flag through the knob table.
/// Returns false when `arg` is not a routing flag.
bool parse_routing_flag(pipeline::RoutingSpec& spec, const std::string& arg,
                        const pipeline::FlagValue& value) {
  if (arg == "--device" || arg == "-d") {
    spec.device = value();
  } else if (arg == "--router" || arg == "-r") {
    // Validate eagerly so a typo fails at parse time with the registered
    // names, not at route time.
    spec.router = pipeline::RouterRegistry::instance().at(value()).name;
  } else if (arg == "--threads" || arg == "-j") {
    const long long threads = parse_int<long long>(arg, value());
    if (threads < 0) throw pipeline::UsageError(arg + " must be >= 0");
    if (threads > std::numeric_limits<int>::max()) {
      throw pipeline::UsageError(arg + " is out of range");
    }
    spec.threads = static_cast<int>(threads);
  } else if (arg == "--set") {
    // Free-form knob for externally registered passes (see
    // RoutingSpec::extras); built-in knobs have dedicated flags.
    const std::string kv = value();
    const std::size_t eq = kv.find('=');
    if (eq == std::string::npos || eq == 0) {
      throw pipeline::UsageError("--set expects KEY=VALUE, got '" + kv + "'");
    }
    spec.set_extra(kv.substr(0, eq), kv.substr(eq + 1));
  } else {
    return pipeline::set_knob_flag(spec, arg, value);
  }
  return true;
}

/// The one argv walker behind both command lines. Routing flags land in
/// `spec`; every other argument goes to `other(arg, value)`, where
/// `value()` consumes and returns the argument after it (or throws "ARG
/// expects a value"). Returns whether --help/-h was given.
template <typename Other>
bool walk_args(const std::vector<std::string>& args,
               pipeline::RoutingSpec& spec, Other&& other) {
  bool help = false;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    const pipeline::FlagValue value = [&]() -> std::string {
      if (i + 1 >= args.size()) {
        throw pipeline::UsageError(arg + " expects a value");
      }
      return args[++i];
    };
    if (arg == "--help" || arg == "-h") {
      help = true;
    } else if (!parse_routing_flag(spec, arg, value)) {
      other(arg, value);
    }
  }
  return help;
}

/// The routing flags, shared by both help texts: for `codar` they
/// configure every route, for `codar serve` the per-request defaults.
constexpr const char* kRoutingUsage =
    R"(  -d, --device SPEC     target device (default tokyo); see --list-devices.
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

}  // namespace

Options parse_args(const std::vector<std::string>& args) {
  Options opts;
  opts.help = walk_args(args, opts, [&](const std::string& arg,
                                        const auto& value) {
    if (arg == "--list-devices") {
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
  });
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

service::ServeOptions parse_serve_args(const std::vector<std::string>& args) {
  service::ServeOptions opts;
  opts.help = walk_args(args, opts.defaults, [&](const std::string& arg,
                                                 const auto& value) {
    if (arg == "--cache-bytes") {
      opts.cache_bytes = parse_int<std::size_t>(arg, value());
    } else if (arg == "--cache-shards") {
      const std::size_t shards = parse_int<std::size_t>(arg, value());
      // Upper bound before the int cast: 2^32 would truncate to 0 and
      // blow past RouteCache's num_shards >= 1 contract.
      if (shards < 1 || shards > 4096) {
        throw pipeline::UsageError("--cache-shards must be in [1, 4096]");
      }
      opts.cache_shards = static_cast<int>(shards);
    } else if (arg == "--cache-dir") {
      opts.cache_dir = value();
      if (opts.cache_dir.empty()) {
        throw pipeline::UsageError("--cache-dir expects a directory path");
      }
    } else if (arg == "--cache-disk-bytes") {
      opts.cache_disk_bytes = parse_int<std::size_t>(arg, value());
    } else if (arg == "--warm-start") {
      opts.warm_start = parse_int<std::size_t>(arg, value());
    } else if (arg == "--listen") {
      opts.listen = value();
      try {
        service::parse_listen_spec(opts.listen);  // fail at parse time
      } catch (const std::invalid_argument& e) {
        throw pipeline::UsageError(e.what());
      }
    } else if (arg == "--max-inflight") {
      const std::size_t n = parse_int<std::size_t>(arg, value());
      if (n < 1 || n > (1u << 20)) {
        throw pipeline::UsageError("--max-inflight must be in [1, 1048576]");
      }
      opts.max_inflight = n;
    } else if (arg == "--idle-timeout-ms") {
      const std::size_t ms = parse_int<std::size_t>(arg, value());
      if (ms > 86400000) {
        throw pipeline::UsageError("--idle-timeout-ms must be <= 86400000");
      }
      opts.idle_timeout_ms = static_cast<int>(ms);
    } else if (arg == "--max-line-bytes") {
      const std::size_t n = parse_int<std::size_t>(arg, value());
      if (n < 1024) {
        throw pipeline::UsageError("--max-line-bytes must be >= 1024");
      }
      opts.max_line_bytes = n;
    } else {
      throw pipeline::UsageError("unknown serve flag '" + arg + "'");
    }
  });
  return opts;
}

std::string usage() {
  return std::string(R"(codar — contextual duration-aware qubit mapping (DAC 2020)

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
)") + kRoutingUsage;
}

std::string serve_usage() {
  return std::string(R"(codar serve — resident NDJSON routing service with a route cache

usage:
  codar serve [options]                    read requests from stdin until EOF
  codar serve --listen tcp:HOST:PORT       serve TCP clients until SIGTERM
  codar serve --listen unix:PATH           serve Unix-socket clients

Requests are newline-delimited JSON objects:
  {"id": 1, "qasm": "OPENQASM 2.0; ...", "device": "tokyo",
   "router": "codar", "options": {"initial": "sabre", "seed": 17}}
  {"id": 2, "suite_name": "qft_8"}       route a built-in suite benchmark
  {"id": 3, "cmd": "stats"}              barrier + cache/request counters

"device" is a registry spec string ("tokyo", "grid:4x5") or an inline
JSON device description object (same schema as --device file:; see
README "Device files") for calibrated devices the server has never
seen. Inline devices are cached by content fingerprint. file:PATH specs
are refused on request lines (untrusted clients must not read server
paths) but remain valid serve-command-line defaults.

Each response is one JSON line: {"id", "cached", "result"} where "result"
is byte-identical to the batch driver's stats object for the same inputs.
Identical (circuit, device, options) requests are served from a sharded
LRU route cache; concurrent duplicates route once.

Socket transports accept any number of concurrent clients, each free to
pipeline requests; responses stream back in completion order tagged with
the client's request ids. Per connection at most --max-inflight requests
may be accepted but unanswered — past that the server stops reading that
connection until responses drain (backpressure). SIGTERM/SIGINT drain:
accepted requests finish, responses flush, then the process exits.

service options:
      --listen SPEC     transport endpoint: stdio (default),
                        tcp:HOST:PORT (port 0 = kernel-chosen) or
                        unix:PATH
      --max-inflight N  per-connection pipelining cap (default 64)
      --idle-timeout-ms N
                        close connections quiet for N ms (default 0 =
                        never; socket transports only)
      --max-line-bytes N
                        oversized-frame cap per request line (default
                        8388608)
      --cache-bytes N   route-cache byte budget (default 268435456; 0
                        disables caching, including the disk tier)
      --cache-shards N  number of independently locked shards (default 8)
      --cache-dir PATH  persistent route-cache directory (crash-safe
                        append-only log; created if absent). A restarted
                        server serves its history as disk hits instead of
                        re-routing. Default: memory-only cache.
      --cache-disk-bytes N
                        disk-tier live-byte budget (default 1073741824;
                        0 = unbounded); oldest entries evicted past it
      --warm-start N    preload the N most recent disk entries into the
                        memory tier at boot (default 0)
      --threads, -j N   worker threads (0 = hardware concurrency)

request defaults (a request's own fields override them):
)") + kRoutingUsage;
}

}  // namespace codar::cli
