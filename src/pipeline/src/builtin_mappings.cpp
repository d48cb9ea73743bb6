// The three built-in initial-mapping strategies as MappingPass adapters:
// identity, the interaction-graph greedy placement (src/layout) and
// SABRE's reverse-traversal refinement (the paper's evaluation protocol),
// which reads the seed / rounds / horizon knobs of the RoutingSpec.

#include <memory>
#include <sstream>

#include "builtins.hpp"
#include "codar/layout/initial_mapping.hpp"
#include "codar/sabre/sabre_router.hpp"

namespace codar::pipeline {

namespace {

class IdentityMapping final : public MappingPass {
 public:
  std::string_view name() const override { return "identity"; }

  layout::Layout choose(const ir::Circuit& circuit,
                        const arch::Device& device) const override {
    return layout::Layout(circuit.num_qubits(), device.graph.num_qubits());
  }

  std::string describe_config() const override { return "pi(q) = q"; }
};

class GreedyMapping final : public MappingPass {
 public:
  std::string_view name() const override { return "greedy"; }

  layout::Layout choose(const ir::Circuit& circuit,
                        const arch::Device& device) const override {
    return layout::greedy_interaction_layout(circuit, device.graph);
  }

  std::string describe_config() const override {
    return "interaction-graph greedy placement (deterministic)";
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

  std::string describe_config() const override {
    std::ostringstream out;
    out << "rounds=" << rounds_ << " seed=" << seed_
        << " horizon=" << horizon_;
    return out.str();
  }

 private:
  int rounds_;
  int horizon_;
  std::uint64_t seed_;
};

}  // namespace

namespace detail {

void register_builtin_mappings(MappingRegistry& registry) {
  registry.add({"identity",
                "pi(q) = q (no placement)",
                [](const RoutingSpec&) {
                  return std::unique_ptr<MappingPass>(new IdentityMapping());
                }});
  registry.add({"greedy",
                "interaction-graph greedy placement, deterministic",
                [](const RoutingSpec&) {
                  return std::unique_ptr<MappingPass>(new GreedyMapping());
                }});
  registry.add({"sabre",
                "SABRE reverse-traversal refinement (the paper's protocol)",
                [](const RoutingSpec& s) {
                  return std::unique_ptr<MappingPass>(new SabreMapping(s));
                }});
}

}  // namespace detail

}  // namespace codar::pipeline
