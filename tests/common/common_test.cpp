#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "codar/common/expects.hpp"
#include "codar/common/rng.hpp"
#include "codar/common/table.hpp"

namespace codar {
namespace {

TEST(Expects, ViolationCarriesLocationAndKind) {
  try {
    CODAR_EXPECTS(1 == 2);
    FAIL() << "should have thrown";
  } catch (const ContractViolation& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("precondition"), std::string::npos);
    EXPECT_NE(what.find("1 == 2"), std::string::npos);
    EXPECT_NE(what.find("common_test.cpp"), std::string::npos);
  }
}

TEST(Expects, EnsuresReportsPostcondition) {
  try {
    CODAR_ENSURES(false);
    FAIL() << "should have thrown";
  } catch (const ContractViolation& e) {
    EXPECT_NE(std::string(e.what()).find("postcondition"),
              std::string::npos);
  }
}

TEST(Expects, PassingConditionsAreSilent) {
  EXPECT_NO_THROW(CODAR_EXPECTS(true));
  EXPECT_NO_THROW(CODAR_ENSURES(2 + 2 == 4));
}

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.uniform_int(0, 1000), b.uniform_int(0, 1000));
  }
}

TEST(Rng, UniformIntStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const int v = rng.uniform_int(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
  EXPECT_THROW(rng.uniform_int(3, 2), ContractViolation);
}

TEST(Rng, IndexCoversRange) {
  Rng rng(9);
  std::vector<int> hits(8, 0);
  for (int i = 0; i < 4000; ++i) ++hits[rng.index(8)];
  for (const int h : hits) EXPECT_GT(h, 0);
  EXPECT_THROW(rng.index(0), ContractViolation);
}

TEST(Rng, UniformDoubleInUnitInterval) {
  Rng rng(11);
  double sum = 0.0;
  for (int i = 0; i < 2000; ++i) {
    const double v = rng.uniform();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
    sum += v;
  }
  EXPECT_NEAR(sum / 2000.0, 0.5, 0.05);
}

TEST(Rng, BernoulliRespectsProbability) {
  Rng rng(13);
  int heads = 0;
  for (int i = 0; i < 5000; ++i) {
    if (rng.bernoulli(0.25)) ++heads;
  }
  EXPECT_NEAR(heads / 5000.0, 0.25, 0.03);
  EXPECT_THROW(rng.bernoulli(1.5), ContractViolation);
}

TEST(Table, AlignedOutput) {
  Table t({"name", "value"});
  t.add_row({"alpha", "1"});
  t.add_row({"b", "22"});
  std::ostringstream oss;
  t.print(oss);
  const std::string out = oss.str();
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_NE(out.find("-----"), std::string::npos);  // header rule
  // Header, rule, and one line per row.
  EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 4);
}

TEST(Table, RejectsMismatchedRows) {
  Table t({"one", "two"});
  EXPECT_THROW(t.add_row({"only-one"}), ContractViolation);
  EXPECT_THROW(Table({}), ContractViolation);
}

TEST(FmtFixed, Decimals) {
  EXPECT_EQ(fmt_fixed(1.23456, 2), "1.23");
  EXPECT_EQ(fmt_fixed(1.0, 3), "1.000");
  EXPECT_EQ(fmt_fixed(-0.5, 1), "-0.5");
}

}  // namespace
}  // namespace codar
