// The device catalog: coverage, alias resolution, parameterized specs and
// error behavior (unknown specs list every spec in the catalog, like
// routers/mappings). Its rows are checked in registry_test.cpp.

#include "codar/pipeline/device_registry.hpp"

#include <gtest/gtest.h>

namespace codar::pipeline {
namespace {

TEST(DeviceRegistry, BuiltinsRegisterOnFirstUse) {
  const DeviceRegistry& reg = DeviceRegistry::instance();
  for (const char* name : {"q16", "tokyo", "enfield", "sycamore",
                           "yorktown", "grid", "linear", "ring", "heavyhex",
                           "octagons", "iontrap", "file"}) {
    EXPECT_NE(reg.find(name), nullptr) << name;
  }
  // Fixed presets first, in catalog order.
  ASSERT_GE(reg.entries().size(), 12u);
  EXPECT_EQ(reg.entries().front().name, "q16");
}

TEST(DeviceRegistry, MakeResolvesNamesAliasesAndParameters) {
  const DeviceRegistry& reg = DeviceRegistry::instance();
  EXPECT_EQ(reg.make("tokyo").graph.num_qubits(), 20);
  EXPECT_EQ(reg.make("q20").graph.num_qubits(), 20);
  EXPECT_EQ(reg.make("ibm_q20_tokyo").graph.num_qubits(), 20);
  EXPECT_EQ(reg.make("grid:2x3").graph.num_qubits(), 6);
  EXPECT_EQ(reg.make("linear:5").graph.num_qubits(), 5);
}

TEST(DeviceRegistry, SpecsEnumeratesDisplayForms) {
  const std::string specs = DeviceRegistry::instance().specs();
  EXPECT_NE(specs.find("tokyo"), std::string::npos);
  EXPECT_NE(specs.find("grid:RxC"), std::string::npos);
  EXPECT_NE(specs.find("file:PATH.json"), std::string::npos);
}

TEST(DeviceRegistry, ErrorsCarryTheFullSpecList) {
  const DeviceRegistry& reg = DeviceRegistry::instance();
  try {
    reg.make("nope");
    FAIL() << "expected UsageError";
  } catch (const UsageError& e) {
    EXPECT_NE(std::string(e.what()).find(reg.specs()), std::string::npos);
  }
  // Parameter shape errors name the expected form.
  try {
    reg.make("grid");
    FAIL() << "expected UsageError";
  } catch (const UsageError& e) {
    EXPECT_NE(std::string(e.what()).find("grid:RxC"), std::string::npos);
  }
  try {
    reg.make("yorktown:5");
    FAIL() << "expected UsageError";
  } catch (const UsageError& e) {
    EXPECT_NE(std::string(e.what()).find("takes no parameter"),
              std::string::npos);
  }
}

}  // namespace
}  // namespace codar::pipeline
