#include "codar/pipeline/registry.hpp"

#include "builtins.hpp"

namespace codar::pipeline {

RouterRegistry& RouterRegistry::instance() {
  // Magic static: built (and the builtins registered) exactly once, in a
  // thread-safe way, on first use.
  static RouterRegistry& reg = *[] {
    auto* r = new RouterRegistry();
    detail::register_builtin_routers(*r);
    return r;
  }();
  return reg;
}

MappingRegistry& MappingRegistry::instance() {
  static MappingRegistry& reg = *[] {
    auto* r = new MappingRegistry();
    detail::register_builtin_mappings(*r);
    return r;
  }();
  return reg;
}

}  // namespace codar::pipeline
