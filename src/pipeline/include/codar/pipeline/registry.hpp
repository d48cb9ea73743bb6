#pragma once

// String-keyed factory registries for routing passes and initial-mapping
// strategies. Each entry carries a name, a one-line description and a
// factory, so adding a pass means registering one entry — the CLI
// (`--router`, `--list-routers`), the serve protocol and the JSON stats
// all pick it up without edits. Knobs are not per-pass: the built-in ones
// are rows of routing_knobs() (spec.hpp), and a registered pass reads its
// own from RoutingSpec::extras (`--set KEY=VALUE`, serve "extras").
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

/// One registered routing pass.
struct RouterEntry {
  std::string name;         ///< Registry key, also the JSON stats name.
  std::string description;  ///< One line for --list-routers.
  /// Builds the pass for a device + spec. The device reference only needs
  /// to outlive the call (built-in passes copy their device model).
  std::function<std::unique_ptr<RoutingPass>(const arch::Device&,
                                             const RoutingSpec&)>
      make;
};

/// One registered initial-mapping strategy.
struct MappingEntry {
  std::string name;         ///< Registry key, also the JSON stats name.
  std::string description;  ///< One line for --list-mappings.
  std::function<std::unique_ptr<MappingPass>(const RoutingSpec&)> make;
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

}  // namespace codar::pipeline
