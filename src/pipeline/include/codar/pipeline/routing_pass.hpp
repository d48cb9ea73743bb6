#pragma once

// The polymorphic pass interfaces behind every codar entry point. A
// RoutingPass turns a lowered logical circuit plus an initial layout into
// a hardware-compliant RoutingResult; a MappingPass chooses that initial
// layout. The built-in passes (CODAR, SABRE, layered A*; identity/greedy/
// SABRE mappings) are thin adapters over the core/sabre/astar/layout
// modules and reach callers through the catalogs in registry.hpp —
// the CLI, the serve service, benches and tests never name a concrete
// router class.

#include <string_view>

#include "codar/arch/device.hpp"
#include "codar/core/routing_result.hpp"
#include "codar/ir/circuit.hpp"
#include "codar/layout/layout.hpp"

namespace codar::pipeline {

/// One qubit-routing pass, constructed for a fixed device and
/// configuration. Implementations must be safe to call concurrently from
/// multiple threads (route() is const and the built-in routers keep no
/// mutable state between calls).
class RoutingPass {
 public:
  virtual ~RoutingPass() = default;

  /// The catalog name of this pass (e.g. "codar").
  virtual std::string_view name() const = 0;

  /// Routes `circuit` (lowered to <=2-qubit gates, used qubits fitting the
  /// device) starting from `initial`.
  virtual core::RoutingResult route(const ir::Circuit& circuit,
                                    const layout::Layout& initial) const = 0;
};

/// One initial-mapping strategy. `choose` may inspect the device freely;
/// strategies needing randomness or iteration counts capture them from the
/// RoutingSpec at construction.
class MappingPass {
 public:
  virtual ~MappingPass() = default;

  /// The catalog name of this strategy (e.g. "greedy").
  virtual std::string_view name() const = 0;

  /// Chooses the initial layout π for `circuit` on `device`.
  virtual layout::Layout choose(const ir::Circuit& circuit,
                                const arch::Device& device) const = 0;
};

}  // namespace codar::pipeline
