#pragma once

// The router and initial-mapping catalogs: constant tables of the
// built-in passes, each entry a name, a one-line description and a
// factory. The CLI (`--router`, `--list-routers`), the serve protocol and
// the JSON stats all read these tables, so a new pass is one class plus
// one row in builtin_routers.cpp or builtin_mappings.cpp. Knobs are not
// per-pass: they are rows of routing_knobs() (spec.hpp).
//
// Each catalog is built once, on the first call of instance() (a magic
// static, so thread-safe), and never written after: the serve worker pool
// and the parallel batch driver read it without a lock.

#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "codar/pipeline/routing_pass.hpp"
#include "codar/pipeline/spec.hpp"

namespace codar::pipeline {

/// One built-in routing pass.
struct RouterEntry {
  std::string name;         ///< Catalog key, also the JSON stats name.
  std::string description;  ///< One line for --list-routers.
  /// Builds the pass for a device + spec. The device reference only needs
  /// to outlive the call (built-in passes copy their device model).
  std::unique_ptr<RoutingPass> (*make)(const arch::Device&,
                                       const RoutingSpec&);
};

/// One built-in initial-mapping strategy.
struct MappingEntry {
  std::string name;         ///< Catalog key, also the JSON stats name.
  std::string description;  ///< One line for --list-mappings.
  std::unique_ptr<MappingPass> (*make)(const RoutingSpec&);
};

/// A constant name → entry table; table order is listing order.
template <typename Entry>
class PassRegistry {
 public:
  /// Entry for `name`, or nullptr when there is none.
  const Entry* find(std::string_view name) const {
    for (const Entry& e : entries_) {
      if (e.name == name) return &e;
    }
    return nullptr;
  }

  /// Entry for `name`; throws UsageError listing the catalog's names.
  const Entry& at(const std::string& name) const {
    if (const Entry* e = find(name)) return *e;
    throw UsageError("unknown " + kind_ + " '" + name + "' (expected " +
                     names() + ")");
  }

  /// All entries in table order.
  const std::vector<Entry>& entries() const { return entries_; }

  /// "a|b|c" over the entry names, in table order.
  std::string names() const {
    std::string out;
    for (const Entry& e : entries_) {
      if (!out.empty()) out += '|';
      out += e.name;
    }
    return out;
  }

 protected:
  /// `kind` is the human-readable noun used in error messages
  /// ("router", "initial mapping").
  PassRegistry(std::string kind, std::vector<Entry> entries)
      : kind_(std::move(kind)), entries_(std::move(entries)) {}

 private:
  std::string kind_;
  std::vector<Entry> entries_;
};

/// The routing passes: codar, codar-fid, sabre, astar.
class RouterRegistry : public PassRegistry<RouterEntry> {
 public:
  static const RouterRegistry& instance();

 private:
  RouterRegistry();  ///< The table, in builtin_routers.cpp.
};

/// The initial-mapping strategies: identity, greedy, sabre.
class MappingRegistry : public PassRegistry<MappingEntry> {
 public:
  static const MappingRegistry& instance();

 private:
  MappingRegistry();  ///< The table, in builtin_mappings.cpp.
};

}  // namespace codar::pipeline
