#pragma once

// Command-line surface of the `codar` binary: QASM in, routed QASM out,
// with device/router/initial-mapping selection, routing knobs, JSON
// statistics and a multi-threaded batch mode (directory of .qasm files, or
// the built-in 71-benchmark suite) — and `codar serve`, whose command line
// sets the service options and the per-request routing defaults.
//
// Router and initial-mapping selection is by name from the pipeline
// catalogs: `--router`/`--initial` validate against their names,
// `--list-routers`/`--list-mappings` enumerate them. Knob flags (the CODAR
// ablation switches, --seed, --mapping-rounds, ...) are rows of
// pipeline::routing_knobs(), the table `codar serve` reads its "options"
// through too, so a new pass or knob needs no CLI edit.

#include <string>
#include <vector>

#include "codar/pipeline/spec.hpp"
#include "codar/service/server.hpp"

namespace codar::cli {

/// The routing-relevant core (router/mapping names, knobs, device,
/// threads, timing) is the library-level RoutingSpec; Options adds the
/// CLI's mode and I/O fields on top.
struct Options : pipeline::RoutingSpec {
  std::vector<std::string> inputs;  ///< Positional .qasm files.
  std::string batch_dir;            ///< --batch DIR: route every *.qasm in DIR.
  bool suite = false;               ///< --suite: route the built-in suite.

  std::string output_path;          ///< -o FILE: routed QASM (default stdout).
  std::string stats_path;           ///< --stats FILE: JSON (default stderr/stdout).
  std::string describe_device;      ///< --describe-device SPEC.
  bool list_devices = false;        ///< --list-devices.
  bool list_routers = false;        ///< --list-routers.
  bool list_mappings = false;       ///< --list-mappings.
  bool help = false;                ///< --help.
};

/// Parses argv (excluding argv[0]). Throws pipeline::UsageError on
/// malformed input; `what()` is the message to print (the caller appends
/// the usage text).
Options parse_args(const std::vector<std::string>& args);

/// Parses `codar serve` arguments (everything after the subcommand word):
/// every routing flag of parse_args, as a request default, plus the
/// service flags (--cache-*, --warm-start, --listen, --max-inflight,
/// --idle-timeout-ms, --max-line-bytes). Throws pipeline::UsageError.
service::ServeOptions parse_serve_args(const std::vector<std::string>& args);

/// The `codar --help` text.
std::string usage();

/// The `codar serve --help` text.
std::string serve_usage();

}  // namespace codar::cli
