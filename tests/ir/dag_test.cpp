#include "codar/ir/dag.hpp"

#include <gtest/gtest.h>

#include <span>
#include <vector>

namespace codar::ir {
namespace {

/// Copies a CSR adjacency row so it compares against a vector literal.
std::vector<int> row(std::span<const int> adjacency) {
  return {adjacency.begin(), adjacency.end()};
}

TEST(DependencyDag, LinearChainOnOneWire) {
  Circuit c(1);
  c.h(0);
  c.t(0);
  c.x(0);
  const DependencyDag dag(c);
  EXPECT_EQ(dag.roots(), (std::vector<int>{0}));
  EXPECT_EQ(row(dag.successors(0)), (std::vector<int>{1}));
  EXPECT_EQ(row(dag.successors(1)), (std::vector<int>{2}));
  EXPECT_TRUE(dag.successors(2).empty());
  EXPECT_EQ(dag.in_degree(2), 1);
}

TEST(DependencyDag, IndependentWiresAreAllRoots) {
  Circuit c(3);
  c.h(0);
  c.h(1);
  c.h(2);
  const DependencyDag dag(c);
  EXPECT_EQ(dag.roots(), (std::vector<int>{0, 1, 2}));
}

TEST(DependencyDag, TwoQubitGateJoinsWires) {
  Circuit c(2);
  c.h(0);    // 0
  c.t(1);    // 1
  c.cx(0, 1);  // 2 depends on 0 and 1
  c.x(0);    // 3 depends on 2
  const DependencyDag dag(c);
  EXPECT_EQ(dag.in_degree(2), 2);
  EXPECT_EQ(row(dag.predecessors(2)), (std::vector<int>{0, 1}));
  EXPECT_EQ(row(dag.predecessors(3)), (std::vector<int>{2}));
}

TEST(DependencyDag, DuplicateEdgeCollapsed) {
  Circuit c(2);
  c.cx(0, 1);  // 0
  c.cx(0, 1);  // 1 depends on 0 via both wires -> single edge
  const DependencyDag dag(c);
  EXPECT_EQ(dag.in_degree(1), 1);
  EXPECT_EQ(row(dag.successors(0)), (std::vector<int>{1}));
}

TEST(DependencyDag, BarrierOrdersItsQubits) {
  Circuit c(2);
  c.h(0);  // 0
  const Qubit both[] = {0, 1};
  c.barrier(both);  // 1
  c.h(1);  // 2 must wait for the barrier
  const DependencyDag dag(c);
  EXPECT_EQ(row(dag.predecessors(1)), (std::vector<int>{0}));
  EXPECT_EQ(row(dag.predecessors(2)), (std::vector<int>{1}));
}

TEST(DependencyDag, SizeMatchesCircuit) {
  Circuit c(2);
  c.h(0);
  c.cx(0, 1);
  const DependencyDag dag(c);
  EXPECT_EQ(dag.size(), 2u);
  EXPECT_THROW(dag.successors(5), ContractViolation);
}

}  // namespace
}  // namespace codar::ir
