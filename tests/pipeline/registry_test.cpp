// Tests for the string-keyed pass registries: the built-in entries, the
// lookup error contract (unknown names list the registered ones), the CLI
// entry of the routing-knob table (set_knob_flag), and registration
// validation.

#include <limits>

#include <gtest/gtest.h>

#include "codar/arch/device.hpp"
#include "codar/pipeline/registry.hpp"

namespace codar::pipeline {
namespace {

TEST(RouterRegistry, BuiltinsAreRegisteredInOrder) {
  const RouterRegistry& reg = RouterRegistry::instance();
  ASSERT_GE(reg.entries().size(), 4u);
  EXPECT_EQ(reg.entries()[0].name, "codar");
  EXPECT_EQ(reg.entries()[1].name, "codar-fid");
  EXPECT_EQ(reg.entries()[2].name, "sabre");
  EXPECT_EQ(reg.entries()[3].name, "astar");
  for (const RouterEntry& e : reg.entries()) {
    EXPECT_FALSE(e.description.empty()) << e.name;
    EXPECT_TRUE(static_cast<bool>(e.make)) << e.name;
  }
  EXPECT_EQ(reg.names(), "codar|codar-fid|sabre|astar");
}

TEST(MappingRegistry, BuiltinsAreRegisteredInOrder) {
  const MappingRegistry& reg = MappingRegistry::instance();
  ASSERT_GE(reg.entries().size(), 3u);
  EXPECT_EQ(reg.entries()[0].name, "identity");
  EXPECT_EQ(reg.entries()[1].name, "greedy");
  EXPECT_EQ(reg.entries()[2].name, "sabre");
  EXPECT_EQ(reg.names(), "identity|greedy|sabre");
}

TEST(PassRegistry, UnknownNamesListRegisteredOnes) {
  EXPECT_EQ(RouterRegistry::instance().find("qiskit"), nullptr);
  try {
    RouterRegistry::instance().at("qiskit");
    FAIL() << "expected UsageError";
  } catch (const UsageError& e) {
    EXPECT_EQ(std::string(e.what()),
              "unknown router 'qiskit' "
              "(expected codar|codar-fid|sabre|astar)");
  }
  try {
    MappingRegistry::instance().at("annealed");
    FAIL() << "expected UsageError";
  } catch (const UsageError& e) {
    EXPECT_EQ(std::string(e.what()),
              "unknown initial mapping 'annealed' "
              "(expected identity|greedy|sabre)");
  }
}

TEST(PassRegistry, RejectsDuplicateAndIncompleteEntries) {
  RouterRegistry local;  // fresh registry, no builtins
  RouterEntry entry{"mine", "a test router",
                    [](const arch::Device&, const RoutingSpec&) {
                      return std::unique_ptr<RoutingPass>();
                    }};
  local.add(entry);
  EXPECT_THROW(local.add(entry), std::logic_error);  // duplicate name
  RouterEntry nameless = entry;
  nameless.name.clear();
  EXPECT_THROW(local.add(nameless), std::logic_error);
  RouterEntry factoryless = entry;
  factoryless.name = "other";
  factoryless.make = nullptr;
  EXPECT_THROW(local.add(factoryless), std::logic_error);
}

TEST(PassRegistry, RouterKnobHooksParseCodarFlags) {
  RoutingSpec spec;
  auto no_value = []() -> std::string {
    throw UsageError("flag expects a value");
  };
  EXPECT_TRUE(set_knob_flag(spec, "--no-context", no_value));
  EXPECT_FALSE(spec.codar.context_aware);
  EXPECT_TRUE(set_knob_flag(spec, "--window", [] { return "25"; }));
  EXPECT_EQ(spec.codar.front_window, 25);
  EXPECT_TRUE(set_knob_flag(spec, "--stagnation", [] { return "7"; }));
  EXPECT_EQ(spec.codar.stagnation_threshold, 7);
  // Malformed / out-of-range values throw the shared UsageError.
  EXPECT_THROW(set_knob_flag(spec, "--window", [] { return "wide"; }),
               UsageError);
  EXPECT_THROW(set_knob_flag(spec, "--stagnation", [] { return "0"; }),
               UsageError);
  // Flags with no row in the knob table are left for the caller.
  EXPECT_FALSE(set_knob_flag(spec, "--batch", no_value));
}

TEST(PassRegistry, RouterKnobHooksRejectValuesOutsideInt) {
  // Each of these used to wrap to an int: 4294967297 routed as window 1,
  // 2147483648 as an unbounded window, 4294967298 as stagnation 2.
  RoutingSpec spec;
  for (const char* bad : {"4294967297", "2147483648", "-2147483649"}) {
    EXPECT_THROW(set_knob_flag(spec, "--window", [bad] { return bad; }),
                 UsageError)
        << bad;
  }
  EXPECT_THROW(
      set_knob_flag(spec, "--stagnation", [] { return "4294967298"; }),
      UsageError);
  EXPECT_EQ(spec.codar.front_window, RoutingSpec{}.codar.front_window);
  EXPECT_EQ(spec.codar.stagnation_threshold,
            RoutingSpec{}.codar.stagnation_threshold);
  // The window takes any int; <= 0 means unbounded.
  EXPECT_TRUE(set_knob_flag(spec, "--window", [] { return "-2147483648"; }));
  EXPECT_EQ(spec.codar.front_window, std::numeric_limits<int>::min());
  EXPECT_TRUE(set_knob_flag(spec, "--window", [] { return "2147483647"; }));
  EXPECT_EQ(spec.codar.front_window, std::numeric_limits<int>::max());
}

TEST(PassRegistry, RouterKnobHooksParseFidWeights) {
  RoutingSpec spec;
  EXPECT_TRUE(set_knob_flag(spec, "--alpha", [] { return "1.5"; }));
  EXPECT_EQ(spec.fid.alpha, 1.5);
  EXPECT_TRUE(set_knob_flag(spec, "--beta", [] { return "0"; }));
  EXPECT_EQ(spec.fid.beta, 0.0);
  EXPECT_TRUE(set_knob_flag(spec, "--gamma", [] { return "2.25"; }));
  EXPECT_EQ(spec.fid.gamma, 2.25);
  EXPECT_THROW(set_knob_flag(spec, "--beta", [] { return "steep"; }),
               UsageError);
  EXPECT_THROW(set_knob_flag(spec, "--beta", [] { return "inf"; }),
               UsageError);
  EXPECT_THROW(set_knob_flag(spec, "--gamma", [] { return "-1"; }),
               UsageError);
}

TEST(PassRegistry, MappingKnobHooksParseSeedAndRounds) {
  RoutingSpec spec;
  EXPECT_TRUE(set_knob_flag(spec, "--seed", [] { return "99"; }));
  EXPECT_EQ(spec.seed, 99u);
  EXPECT_TRUE(set_knob_flag(spec, "--mapping-rounds", [] { return "5"; }));
  EXPECT_EQ(spec.mapping_rounds, 5);
  // Zero rounds would fail inside every route: a usage error instead.
  for (const char* bad : {"-1", "0", "2.5", "4294967297"}) {
    EXPECT_THROW(
        set_knob_flag(spec, "--mapping-rounds", [bad] { return bad; }),
        UsageError)
        << bad;
  }
  EXPECT_EQ(spec.mapping_rounds, 5);
}

TEST(PassRegistry, MappingKnobHookParsesHorizon) {
  RoutingSpec spec;
  EXPECT_GT(spec.mapping_horizon, 0);  // bounded by default
  EXPECT_TRUE(
      set_knob_flag(spec, "--mapping-horizon", [] { return "250"; }));
  EXPECT_EQ(spec.mapping_horizon, 250);
  EXPECT_TRUE(set_knob_flag(spec, "--mapping-horizon", [] { return "0"; }));
  EXPECT_EQ(spec.mapping_horizon, 0);
  for (const char* bad : {"-1", "1.5", "many", "", "4294967296"}) {
    EXPECT_THROW(
        set_knob_flag(spec, "--mapping-horizon", [bad] { return bad; }),
        UsageError)
        << bad;
  }
  EXPECT_EQ(spec.mapping_horizon, 0);
  const std::unique_ptr<MappingPass> pass =
      MappingRegistry::instance().at("sabre").make(spec);
  EXPECT_NE(pass->describe_config().find("horizon=0"), std::string::npos);
}

TEST(RoutingSpec, ExtrasAreSortedAndReplaceable) {
  RoutingSpec spec;
  EXPECT_EQ(spec.extra("beam"), nullptr);
  spec.set_extra("beam", "8");
  spec.set_extra("alpha", "0.5");
  spec.set_extra("beam", "16");  // replace, not duplicate
  ASSERT_EQ(spec.extras.size(), 2u);
  EXPECT_EQ(spec.extras[0].first, "alpha");  // sorted for fingerprinting
  EXPECT_EQ(spec.extras[1].first, "beam");
  ASSERT_NE(spec.extra("beam"), nullptr);
  EXPECT_EQ(*spec.extra("beam"), "16");
}

TEST(PassRegistry, FactoriesBuildPassesThatKnowTheirNames) {
  const arch::Device device = arch::ibm_q20_tokyo();
  RoutingSpec spec;
  for (const RouterEntry& e : RouterRegistry::instance().entries()) {
    const std::unique_ptr<RoutingPass> pass = e.make(device, spec);
    ASSERT_NE(pass, nullptr) << e.name;
    EXPECT_EQ(pass->name(), e.name);
    EXPECT_FALSE(pass->describe_config().empty()) << e.name;
  }
  for (const MappingEntry& e : MappingRegistry::instance().entries()) {
    const std::unique_ptr<MappingPass> pass = e.make(spec);
    ASSERT_NE(pass, nullptr) << e.name;
    EXPECT_EQ(pass->name(), e.name);
    EXPECT_FALSE(pass->describe_config().empty()) << e.name;
  }
}

}  // namespace
}  // namespace codar::pipeline
