#pragma once

// Command-line surface of the `codar` driver binary: QASM in, routed QASM
// out, with device/router/initial-mapping selection, per-pass knobs, JSON
// statistics and a multi-threaded batch mode (directory of .qasm files, or
// the built-in 71-benchmark suite).
//
// Router and initial-mapping selection is string-keyed through the
// pipeline registries: `--router`/`--initial` validate against the
// registered names, `--list-routers`/`--list-mappings` enumerate them, and
// pass-specific knob flags (the CODAR ablation switches, --seed,
// --mapping-rounds) are parsed by the hooks the passes registered — a new
// pass never needs a CLI edit.

#include <functional>
#include <string>
#include <vector>

#include "codar/pipeline/registry.hpp"
#include "codar/pipeline/spec.hpp"

namespace codar::cli {

/// The routing-relevant core (router/mapping names, knobs, verify,
/// peephole) is the library-level RoutingSpec; Options adds the CLI's
/// I/O and presentation fields on top.
struct Options : pipeline::RoutingSpec {
  std::vector<std::string> inputs;  ///< Positional .qasm files.
  std::string batch_dir;            ///< --batch DIR: route every *.qasm in DIR.
  bool suite = false;               ///< --suite: route the built-in suite.

  std::string device = "tokyo";     ///< --device SPEC (DeviceRegistry).

  int threads = 0;                  ///< --threads N; 0 = hardware concurrency.
  bool timing = false;              ///< --timing: stage wall times in the JSON.

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

/// Shared option plumbing for every subcommand: tries to consume one
/// routing-related flag into `opts` — the generic selection flags
/// (--device/--router/--initial/--threads/--no-verify/--timing/--peephole)
/// plus any knob flag claimed by a registered pass's parsing hook.
/// `value` must yield the flag's argument (and may throw UsageError when
/// none is left). Returns false when `arg` is not a routing flag, so the
/// caller can handle its own mode/I-O flags. Used by parse_args and by
/// `codar serve`, whose requests default to the flags given on the serve
/// command line.
bool parse_routing_flag(Options& opts, const std::string& arg,
                        const std::function<std::string()>& value);

/// The full usage/help text.
std::string usage();

}  // namespace codar::cli
