#pragma once

// The `codar serve` NDJSON request protocol. One request per line:
//
//   {"id": 1, "qasm": "OPENQASM 2.0; ...", "device": "tokyo",
//    "router": "codar", "options": {"initial": "sabre", "seed": 17}}
//   {"id": 2, "suite_name": "qft_8"}
//   {"id": 3, "cmd": "stats"}
//
// Route requests carry either inline OpenQASM (`qasm`) or the name of a
// built-in suite benchmark (`suite_name`), plus optional device/router
// selection and an `options` object: one key per row of
// pipeline::routing_knobs() (the table the CLI's knob flags come from),
// plus "extras" for the knobs of externally registered passes.
// `device` is either a registry spec string ("tokyo", "grid:4x5") or an
// inline JSON device description object (the `--device file:` schema —
// see codar/arch/device_json.hpp), so clients can route against
// calibrated devices the server has never seen; the route cache keys on
// the device's content fingerprint either way. Filesystem-backed specs
// (`file:PATH`) are refused on request lines — requests are untrusted
// and must not make the server read arbitrary paths; they stay available
// on the serve command line.
// Unspecified fields inherit the defaults given on the `codar serve`
// command line. `{"cmd": "stats"}` is a control request: the server drains
// all in-flight work, then reports cache and request counters.

#include <cstdint>
#include <memory>
#include <string>

#include "codar/arch/device.hpp"
#include "codar/pipeline/spec.hpp"

namespace codar::service {

/// Raised on malformed request lines; `what()` goes into the error
/// response verbatim.
class ProtocolError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// One parsed request line.
struct ServeRequest {
  enum class Kind { kRoute, kStats };

  Kind kind = Kind::kRoute;
  /// The request id re-rendered as a JSON token (number verbatim, string
  /// re-quoted, "null" when absent) so responses echo it byte-exactly.
  std::string id_json = "null";
  std::string qasm;        ///< Inline OpenQASM source, or ...
  std::string suite_name;  ///< ... a built-in suite benchmark name.
  std::string name;        ///< Optional display name for the report.
  pipeline::RoutingSpec opts;  ///< defaults overlaid with request fields.
  /// Set when the request carried an inline `device` object instead of a
  /// spec string; `opts.device` then holds its display name only.
  std::shared_ptr<const arch::Device> inline_device;
};

/// Parses one NDJSON request line on top of the server-wide `defaults`.
/// Throws ProtocolError (malformed JSON, unknown keys/kinds, missing or
/// conflicting circuit source).
ServeRequest parse_request(const std::string& line,
                           const pipeline::RoutingSpec& defaults);

/// Fingerprint over every RoutingSpec field that can change a routed
/// result or its cached report: router, initial mapping, seed, mapping
/// rounds and horizon, peephole, verify, the CODAR ablation knobs, the
/// codar-fid weights, and the free-form extras for externally registered
/// passes. Deliberately excludes the presentation fields (device spec
/// string, threads, timing) — the device is fingerprinted separately from
/// its content.
std::uint64_t options_fingerprint(const pipeline::RoutingSpec& opts);

}  // namespace codar::service
