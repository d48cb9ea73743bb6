#pragma once

// The device-independent description of one compilation: which routing
// pass and initial-mapping strategy to run (by registry name — see
// registry.hpp) plus every knob that can change a routed result, and the
// three presentation fields both front ends share (device spec, worker
// threads, timing). `codar serve` takes its per-request defaults as a
// RoutingSpec; the CLI's Options derives from it and adds its mode and
// I/O fields. Both front ends set the knobs through one table,
// routing_knobs() below.

#include <cstdint>
#include <functional>
#include <limits>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "codar/core/codar_router.hpp"

namespace codar::pipeline {

/// Raised on malformed spec values: unknown router/mapping names and
/// out-of-range or unparseable knob values. The CLI layer treats it as a
/// usage error (`what()` is the message to print); `codar serve` rewraps
/// it into a ProtocolError for per-request failures.
class UsageError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Everything a Pipeline needs to know besides the device and the circuit.
/// Router and mapping are registry names, validated when the Pipeline is
/// built (or eagerly by the flag/request parsers).
struct RoutingSpec {
  std::string router = "codar";    ///< RouterRegistry name.
  std::string mapping = "sabre";   ///< MappingRegistry name.
  core::CodarConfig codar;         ///< CODAR feature toggles / ablations.
  std::uint64_t seed = 17;         ///< Initial-mapping RNG seed.
  int mapping_rounds = 3;          ///< SABRE reverse-traversal rounds.
  /// Routed two-qubit gates the SABRE layout search reads from the
  /// circuit's start (0 = the whole circuit, as published).
  int mapping_horizon = 500;
  bool verify = true;              ///< Run verify_routing after routing.
  bool peephole = false;           ///< Pre-routing peephole cleanup stage.

  /// Objective weights of the codar-fid pass (--alpha/--beta/--gamma, or
  /// the same-named serve options): distance, log-fidelity, decoherence.
  /// Ignored by every other router; with beta = gamma = 0 codar-fid is
  /// byte-identical to codar. Cache-key relevant (the serve options
  /// fingerprint folds all three).
  struct FidWeights {
    double alpha = 1.0;  ///< Weight of the H_basic distance term.
    double beta = 5.0;   ///< Weight of ln F_swap per candidate edge.
    double gamma = 1.0;  ///< Weight of the SWAP-duration decoherence term.
  };
  FidWeights fid;

  /// Free-form knobs for externally registered passes, which have no
  /// dedicated field above: their factories read values from here. Fed by
  /// `--set KEY=VALUE` on the CLI and the `"extras"` object in serve
  /// requests, and folded into the route-cache options fingerprint — so a
  /// third-party knob is cache-correct without touching either front end.
  /// Kept sorted by key (set_extra) so the fingerprint is canonical.
  std::vector<std::pair<std::string, std::string>> extras;

  // Presentation fields: they never change a routed result, so the route
  // cache's options fingerprint leaves them out.
  std::string device = "tokyo";  ///< DeviceRegistry spec (display name).
  int threads = 0;               ///< Worker threads; 0 = hardware count.
  bool timing = false;           ///< Stage wall times in the JSON report.

  /// Inserts or replaces `key`, keeping `extras` sorted.
  void set_extra(const std::string& key, std::string value) {
    for (auto it = extras.begin(); it != extras.end(); ++it) {
      if (it->first == key) {
        it->second = std::move(value);
        return;
      }
      if (it->first > key) {
        extras.insert(it, {key, std::move(value)});
        return;
      }
    }
    extras.emplace_back(key, std::move(value));
  }

  /// Value for `key`, or nullptr when unset.
  const std::string* extra(const std::string& key) const {
    for (const auto& [k, v] : extras) {
      if (k == key) return &v;
    }
    return nullptr;
  }
};

/// One routing knob with a RoutingSpec field, as both front ends spell it:
/// the `codar serve` "options" key, the CLI flag, the kind of value with
/// its bound, and the field it sets. The front ends convert only their own
/// syntax (argv text in set_knob_flag, a JSON value in
/// service::parse_request) and hand the value to set(), so each bound is
/// written once and a new knob is one row. Knobs of externally registered
/// passes have no row: they go through RoutingSpec::extras.
struct RoutingKnob {
  enum class Kind {
    kOn,       ///< A switch; the CLI flag takes no value and sets true.
    kOff,      ///< A switch; the CLI flag takes no value and sets false.
    kInt,      ///< An integer >= min that fits an int.
    kSeed,     ///< Any 64-bit integer, kept modulo 2^64.
    kNumber,   ///< A finite number >= min.
    kMapping,  ///< A MappingRegistry name.
  };
  /// The value a front end converted: bool for switches, long long for
  /// kInt/kSeed, double for kNumber, the name for kMapping.
  using Value = std::variant<bool, long long, double, std::string>;
  using Field =
      std::variant<bool*, int*, std::uint64_t*, double*, std::string*>;

  const char* key;   ///< serve "options" key, e.g. "window".
  const char* flag;  ///< CLI flag, e.g. "--window" or "--no-context".
  Kind kind;
  Field (*field)(RoutingSpec&);  ///< The spec field the knob sets.
  /// Least accepted kInt/kNumber value.
  double min = -std::numeric_limits<double>::infinity();

  /// Checks `value` against the kind and bound and writes it into `spec`.
  /// Throws UsageError naming the knob as `name` (the caller's spelling:
  /// "--window" on the command line, "'window'" in a request).
  void set(RoutingSpec& spec, const Value& value,
           const std::string& name) const;
};

/// Every built-in routing knob, in the order of the CLI help.
std::span<const RoutingKnob> routing_knobs();

/// Yields the argument of the flag being parsed. May throw UsageError
/// when the command line has no value left.
using FlagValue = std::function<std::string()>;

/// The CLI entry of routing_knobs(): when `flag` is a knob's flag, converts
/// its argv text (read through `value` unless the knob is a switch) and
/// sets it. Returns false for any other flag; throws UsageError naming the
/// flag on a malformed or out-of-bound value.
bool set_knob_flag(RoutingSpec& spec, const std::string& flag,
                   const FlagValue& value);

}  // namespace codar::pipeline
