// The three built-in initial-mapping strategies as MappingPass adapters:
// identity, the interaction-graph greedy placement (src/layout) and
// SABRE's reverse-traversal refinement (the paper's evaluation protocol),
// which reads the seed / rounds / horizon knobs of the RoutingSpec; and
// the mapping catalog that lists them.

#include <memory>

#include "codar/layout/initial_mapping.hpp"
#include "codar/pipeline/registry.hpp"
#include "codar/sabre/sabre_router.hpp"

namespace codar::pipeline {

namespace {

class IdentityMapping final : public MappingPass {
 public:
  explicit IdentityMapping(const RoutingSpec&) {}

  std::string_view name() const override { return "identity"; }

  layout::Layout choose(const ir::Circuit& circuit,
                        const arch::Device& device) const override {
    return layout::Layout(circuit.num_qubits(), device.graph.num_qubits());
  }
};

class GreedyMapping final : public MappingPass {
 public:
  explicit GreedyMapping(const RoutingSpec&) {}

  std::string_view name() const override { return "greedy"; }

  layout::Layout choose(const ir::Circuit& circuit,
                        const arch::Device& device) const override {
    return layout::greedy_interaction_layout(circuit, device.graph);
  }
};

class SabreMapping final : public MappingPass {
 public:
  explicit SabreMapping(const RoutingSpec& spec)
      : rounds_(spec.mapping_rounds),
        horizon_(spec.mapping_horizon),
        seed_(spec.seed) {}

  std::string_view name() const override { return "sabre"; }

  layout::Layout choose(const ir::Circuit& circuit,
                        const arch::Device& device) const override {
    return sabre::SabreRouter(device).initial_mapping(circuit, rounds_,
                                                      seed_, horizon_);
  }

 private:
  int rounds_;
  int horizon_;
  std::uint64_t seed_;
};

template <typename Pass>
std::unique_ptr<MappingPass> make(const RoutingSpec& spec) {
  return std::make_unique<Pass>(spec);
}

}  // namespace

MappingRegistry::MappingRegistry()
    : PassRegistry(
          "initial mapping",
          {{"identity", "pi(q) = q (no placement)", make<IdentityMapping>},
           {"greedy", "interaction-graph greedy placement, deterministic",
            make<GreedyMapping>},
           {"sabre",
            "SABRE reverse-traversal refinement (the paper's protocol)",
            make<SabreMapping>}}) {}

const MappingRegistry& MappingRegistry::instance() {
  static const MappingRegistry registry;
  return registry;
}

}  // namespace codar::pipeline
