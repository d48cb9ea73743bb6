// The three built-in routing passes as RoutingPass adapters: CODAR
// (src/core), SABRE (src/sabre) and the layered A* baseline (src/astar).
// Each registers itself with a name, a one-line description and a
// factory, so the CLI/serve layers never name these classes.

#include <memory>
#include <sstream>

#include "builtins.hpp"
#include "codar/astar/astar_router.hpp"
#include "codar/core/codar_router.hpp"
#include "codar/cost/swap_cost.hpp"
#include "codar/sabre/sabre_router.hpp"

namespace codar::pipeline {

namespace {

const char* on_off(bool b) { return b ? "on" : "off"; }

class CodarPass final : public RoutingPass {
 public:
  CodarPass(const arch::Device& device, const RoutingSpec& spec)
      : router_(device, spec.codar) {}

  std::string_view name() const override { return "codar"; }

  core::RoutingResult route(const ir::Circuit& circuit,
                            const layout::Layout& initial) const override {
    return router_.route(circuit, initial);
  }

  std::string describe_config() const override {
    const core::CodarConfig& c = router_.config();
    std::ostringstream out;
    out << "context=" << on_off(c.context_aware)
        << " duration=" << on_off(c.duration_aware)
        << " commutativity=" << on_off(c.commutativity_aware)
        << " fine-priority=" << on_off(c.fine_priority)
        << " window=" << c.front_window
        << " stagnation=" << c.stagnation_threshold;
    return out.str();
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

  std::string describe_config() const override {
    const core::CodarConfig& c = router_.config();
    std::ostringstream out;
    out << "alpha=" << weights_.alpha << " beta=" << weights_.beta
        << " gamma=" << weights_.gamma
        << " context=" << on_off(c.context_aware)
        << " duration=" << on_off(c.duration_aware)
        << " commutativity=" << on_off(c.commutativity_aware)
        << " fine-priority=" << on_off(c.fine_priority)
        << " window=" << c.front_window
        << " stagnation=" << c.stagnation_threshold;
    return out.str();
  }

 private:
  core::CodarConfig configure(const arch::Device& device,
                              const RoutingSpec& spec) {
    weights_ = spec.fid;
    core::CodarConfig config = spec.codar;
    config.alpha = weights_.alpha;
    if (weights_.beta != 0.0 || weights_.gamma != 0.0) {
      config.swap_cost = std::make_shared<const cost::SwapCost>(
          device, weights_.beta, weights_.gamma);
    }
    return config;
  }

  RoutingSpec::FidWeights weights_;
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

  std::string describe_config() const override {
    const sabre::SabreConfig& c = router_.config();
    std::ostringstream out;
    out << "extended-weight=" << c.extended_weight
        << " extended-set=" << c.extended_set_size
        << " decay-delta=" << c.decay_delta
        << " decay-reset=" << c.decay_reset_interval
        << " stagnation=" << c.stagnation_threshold;
    return out.str();
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

  std::string describe_config() const override {
    const astar::AstarConfig& c = router_.config();
    std::ostringstream out;
    out << "max-expansions=" << c.max_expansions
        << " heuristic-weight=" << c.heuristic_weight;
    return out.str();
  }

 private:
  astar::AstarRouter router_;
};

}  // namespace

namespace detail {

void register_builtin_routers(RouterRegistry& registry) {
  registry.add(
      {"codar",
       "contextual duration-aware remapper (the paper's router, DAC 2020)",
       [](const arch::Device& d, const RoutingSpec& s) {
         return std::unique_ptr<RoutingPass>(new CodarPass(d, s));
       }});
  registry.add(
      {"codar-fid",
       "codar with fidelity-aware SWAP scoring "
       "(alpha*distance + beta*log-fidelity + gamma*decoherence)",
       [](const arch::Device& d, const RoutingSpec& s) {
         return std::unique_ptr<RoutingPass>(new CodarFidPass(d, s));
       }});
  registry.add(
      {"sabre",
       "SWAP-based bidirectional heuristic baseline (ASPLOS 2019), "
       "duration-blind",
       [](const arch::Device& d, const RoutingSpec& s) {
         return std::unique_ptr<RoutingPass>(new SabrePass(d, s));
       }});
  registry.add(
      {"astar",
       "layered A*-search baseline (TCAD 2019), duration-blind",
       [](const arch::Device& d, const RoutingSpec& s) {
         return std::unique_ptr<RoutingPass>(new AstarPass(d, s));
       }});
}

}  // namespace detail

}  // namespace codar::pipeline
