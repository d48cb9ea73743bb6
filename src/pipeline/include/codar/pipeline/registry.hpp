#pragma once

// String-keyed factory registries for routing passes and initial-mapping
// strategies. Each entry carries a name, a one-line description, a factory
// and an optional knob-parsing hook, so adding a pass means registering
// one entry — the CLI (`--router`, `--list-routers`, knob flags), the
// serve protocol and the JSON stats all pick it up without edits.
//
// The built-in passes self-register the first time a registry is used
// (instance() runs their registration exactly once, thread-safely); user
// code may add() further entries at startup, before concurrent use.
//
// Concurrency contract: registries are write-at-startup, read-after.
// add() is NOT synchronized against concurrent resolve()/names() — the
// serve worker pool and parallel batch driver assume the entry tables are
// frozen by the time they fan out (which the magic-static registration
// guarantees for the built-ins). Registering passes from a running worker
// is a data race by contract, not a supported operation; DESIGN.md §11
// lists the state that IS lock-protected.

#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "codar/pipeline/routing_pass.hpp"
#include "codar/pipeline/spec.hpp"

namespace codar::pipeline {

/// Yields the argument of the flag currently being parsed. May throw
/// UsageError when the command line has no value left.
using FlagValue = std::function<std::string()>;

/// Tries to consume one pass-specific flag (CLI spelling, e.g. "--window")
/// into `spec`. Returns false when the flag does not belong to this pass;
/// throws UsageError on a malformed value.
using KnobParser = std::function<bool(RoutingSpec& spec,
                                      const std::string& flag,
                                      const FlagValue& value)>;

/// One registered routing pass.
struct RouterEntry {
  std::string name;         ///< Registry key, also the JSON stats name.
  std::string description;  ///< One line for --list-routers.
  /// Builds the pass for a device + spec. The device reference only needs
  /// to outlive the call (built-in passes copy their device model).
  std::function<std::unique_ptr<RoutingPass>(const arch::Device&,
                                             const RoutingSpec&)>
      make;
  KnobParser parse_flag;  ///< May be null: pass has no knob flags.
};

/// One registered initial-mapping strategy.
struct MappingEntry {
  std::string name;         ///< Registry key, also the JSON stats name.
  std::string description;  ///< One line for --list-mappings.
  std::function<std::unique_ptr<MappingPass>(const RoutingSpec&)> make;
  KnobParser parse_flag;  ///< May be null: strategy has no knob flags.
};

/// Ordered name → entry map; registration order is listing order.
template <typename Entry>
class PassRegistry {
 public:
  /// `kind` is the human-readable noun used in error messages
  /// ("router", "initial mapping").
  explicit PassRegistry(std::string kind) : kind_(std::move(kind)) {}

  /// Registers an entry. Throws std::logic_error on a duplicate name or
  /// a missing factory.
  void add(Entry entry) {
    if (entry.name.empty() || !entry.make) {
      throw std::logic_error(kind_ + " registration needs a name and a "
                                     "factory");
    }
    if (find(entry.name) != nullptr) {
      throw std::logic_error("duplicate " + kind_ + " '" + entry.name + "'");
    }
    entries_.push_back(std::move(entry));
  }

  /// Entry for `name`, or nullptr when unregistered.
  const Entry* find(std::string_view name) const {
    for (const Entry& e : entries_) {
      if (e.name == name) return &e;
    }
    return nullptr;
  }

  /// Entry for `name`; throws UsageError listing the registered names.
  const Entry& at(const std::string& name) const {
    if (const Entry* e = find(name)) return *e;
    throw UsageError("unknown " + kind_ + " '" + name + "' (expected " +
                     names() + ")");
  }

  /// All entries in registration order.
  const std::vector<Entry>& entries() const { return entries_; }

  /// "a|b|c" over the registered names, in registration order.
  std::string names() const {
    std::string out;
    for (const Entry& e : entries_) {
      if (!out.empty()) out += '|';
      out += e.name;
    }
    return out;
  }

  /// Offers one flag to every registered knob-parsing hook. Returns true
  /// as soon as a pass claims it.
  bool parse_knob(RoutingSpec& spec, const std::string& flag,
                  const FlagValue& value) const {
    for (const Entry& e : entries_) {
      if (e.parse_flag && e.parse_flag(spec, flag, value)) return true;
    }
    return false;
  }

 private:
  std::string kind_;
  std::vector<Entry> entries_;
};

/// The process-wide routing-pass registry (codar, sabre, astar built in).
class RouterRegistry : public PassRegistry<RouterEntry> {
 public:
  RouterRegistry() : PassRegistry("router") {}
  static RouterRegistry& instance();
};

/// The process-wide initial-mapping registry (identity, greedy, sabre).
class MappingRegistry : public PassRegistry<MappingEntry> {
 public:
  MappingRegistry() : PassRegistry("initial mapping") {}
  static MappingRegistry& instance();
};

/// Shared helper for knob hooks: parses a mandatory integral flag value,
/// throwing UsageError on garbage.
long long knob_int(const std::string& flag, const std::string& value);

/// Shared helper for knob hooks: parses a mandatory integral flag value
/// that must be at least `min` and fit an int, throwing UsageError on
/// garbage or an out-of-range value.
int knob_at_least(const std::string& flag, const std::string& value, int min);

/// Shared helper for knob hooks: parses a mandatory finite floating-point
/// flag value, throwing UsageError on garbage (inf/nan included).
double knob_double(const std::string& flag, const std::string& value);

}  // namespace codar::pipeline
