#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "codar/qasm/lexer.hpp"
#include "codar/qasm/parser.hpp"
#include "codar/qasm/writer.hpp"
#include "codar/workloads/suite.hpp"

namespace codar::qasm {
namespace {

class ParseFileTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // One directory per test: ctest runs the cases as parallel processes,
    // and a shared one would be removed under a sibling by its TearDown.
    dir_ = std::filesystem::temp_directory_path() /
           (std::string("codar_qasm_test_") +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

  std::filesystem::path write(const std::string& name,
                              const std::string& contents) {
    const std::filesystem::path path = dir_ / name;
    std::ofstream out(path);
    out << contents;
    return path;
  }

  std::filesystem::path dir_;
};

TEST_F(ParseFileTest, ReadsAndParses) {
  const auto path = write("bell.qasm",
                          "OPENQASM 2.0;\nqreg q[2];\nh q[0];\ncx "
                          "q[0],q[1];\n");
  const ir::Circuit c = parse_file(path.string());
  EXPECT_EQ(c.num_qubits(), 2);
  EXPECT_EQ(c.size(), 2u);
}

TEST_F(ParseFileTest, MissingFileThrows) {
  EXPECT_THROW(parse_file((dir_ / "nope.qasm").string()),
               std::runtime_error);
}

TEST_F(ParseFileTest, ParseErrorsCarryThroughFromFiles) {
  const auto path = write("bad.qasm", "OPENQASM 2.0;\nqreg q[1];\nboom;\n");
  EXPECT_THROW(parse_file(path.string()), QasmError);
}

TEST_F(ParseFileTest, WholeSuiteRoundTripsThroughDisk) {
  // Write + reread a slice of the benchmark suite: exactly what the
  // export_suite tool and external-compiler comparisons rely on.
  int checked = 0;
  for (const workloads::BenchmarkSpec& spec : workloads::benchmark_suite()) {
    if (spec.circuit.size() > 400) continue;
    const auto path = write(spec.name + ".qasm", to_qasm(spec.circuit));
    const ir::Circuit reparsed = parse_file(path.string());
    ASSERT_EQ(reparsed.size(), spec.circuit.size()) << spec.name;
    for (std::size_t i = 0; i < reparsed.size(); ++i) {
      ASSERT_EQ(reparsed.gate(i), spec.circuit.gate(i))
          << spec.name << " gate " << i;
    }
    ++checked;
  }
  EXPECT_GE(checked, 40);
}

}  // namespace
}  // namespace codar::qasm
