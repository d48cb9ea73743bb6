// The four built-in routing passes as RoutingPass adapters: CODAR and
// codar-fid (src/core), SABRE (src/sabre) and the layered A* baseline
// (src/astar), and the router catalog that lists them, so the CLI/serve
// layers never name these classes.

#include <memory>

#include "codar/astar/astar_router.hpp"
#include "codar/core/codar_router.hpp"
#include "codar/cost/swap_cost.hpp"
#include "codar/pipeline/registry.hpp"
#include "codar/sabre/sabre_router.hpp"

namespace codar::pipeline {

namespace {

class CodarPass final : public RoutingPass {
 public:
  CodarPass(const arch::Device& device, const RoutingSpec& spec)
      : router_(device, spec.codar) {}

  std::string_view name() const override { return "codar"; }

  core::RoutingResult route(const ir::Circuit& circuit,
                            const layout::Layout& initial) const override {
    return router_.route(circuit, initial);
  }

 private:
  core::CodarRouter router_;
};

/// CODAR with fidelity-aware SWAP scoring: the same event-driven core,
/// candidates priced by alpha·H_basic + beta·ln F_swap − gamma·decoherence
/// (cost::SwapCost). With beta = gamma = 0 no cost model is installed at
/// all, so the pass runs the literal codar code path — byte-identical
/// output by construction, not by numerical accident.
class CodarFidPass final : public RoutingPass {
 public:
  CodarFidPass(const arch::Device& device, const RoutingSpec& spec)
      : router_(device, configure(device, spec)) {}

  std::string_view name() const override { return "codar-fid"; }

  core::RoutingResult route(const ir::Circuit& circuit,
                            const layout::Layout& initial) const override {
    return router_.route(circuit, initial);
  }

 private:
  static core::CodarConfig configure(const arch::Device& device,
                                     const RoutingSpec& spec) {
    core::CodarConfig config = spec.codar;
    config.alpha = spec.fid.alpha;
    if (spec.fid.beta != 0.0 || spec.fid.gamma != 0.0) {
      config.swap_cost = std::make_shared<const cost::SwapCost>(
          device, spec.fid.beta, spec.fid.gamma);
    }
    return config;
  }

  core::CodarRouter router_;
};

class SabrePass final : public RoutingPass {
 public:
  SabrePass(const arch::Device& device, const RoutingSpec&)
      : router_(device) {}

  std::string_view name() const override { return "sabre"; }

  core::RoutingResult route(const ir::Circuit& circuit,
                            const layout::Layout& initial) const override {
    return router_.route(circuit, initial);
  }

 private:
  sabre::SabreRouter router_;
};

class AstarPass final : public RoutingPass {
 public:
  AstarPass(const arch::Device& device, const RoutingSpec&)
      : router_(device) {}

  std::string_view name() const override { return "astar"; }

  core::RoutingResult route(const ir::Circuit& circuit,
                            const layout::Layout& initial) const override {
    return router_.route(circuit, initial);
  }

 private:
  astar::AstarRouter router_;
};

template <typename Pass>
std::unique_ptr<RoutingPass> make(const arch::Device& device,
                                  const RoutingSpec& spec) {
  return std::make_unique<Pass>(device, spec);
}

}  // namespace

RouterRegistry::RouterRegistry()
    : PassRegistry(
          "router",
          {{"codar",
            "contextual duration-aware remapper (the paper's router, DAC "
            "2020)",
            make<CodarPass>},
           {"codar-fid",
            "codar with fidelity-aware SWAP scoring "
            "(alpha*distance + beta*log-fidelity + gamma*decoherence)",
            make<CodarFidPass>},
           {"sabre",
            "SWAP-based bidirectional heuristic baseline (ASPLOS 2019), "
            "duration-blind",
            make<SabrePass>},
           {"astar", "layered A*-search baseline (TCAD 2019), duration-blind",
            make<AstarPass>}}) {}

const RouterRegistry& RouterRegistry::instance() {
  static const RouterRegistry registry;
  return registry;
}

}  // namespace codar::pipeline
