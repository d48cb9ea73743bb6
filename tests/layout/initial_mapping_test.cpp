#include "codar/layout/initial_mapping.hpp"

#include <gtest/gtest.h>

#include "codar/arch/device.hpp"
#include "codar/workloads/generators.hpp"
#include "support/mapping_cost.hpp"

namespace codar::layout {
namespace {

using ir::Circuit;
using codar::testing::mapping_cost;

TEST(InteractionGraph, CountsTwoQubitGates) {
  Circuit c(3);
  c.h(0);          // 1q gates ignored
  c.cx(0, 1);
  c.cx(0, 1);
  c.cz(1, 2);
  const InteractionGraph ig(c);
  EXPECT_EQ(ig.weight(0, 1), 2);
  EXPECT_EQ(ig.weight(1, 0), 2);
  EXPECT_EQ(ig.weight(1, 2), 1);
  EXPECT_EQ(ig.weight(0, 2), 0);
  EXPECT_EQ(ig.degree(1), 3);
  EXPECT_EQ(ig.pairs().size(), 2u);
}

TEST(InteractionGraph, BarriersAreNotInteractions) {
  Circuit c(2);
  const Qubit both[] = {0, 1};
  c.barrier(both);
  const InteractionGraph ig(c);
  EXPECT_EQ(ig.weight(0, 1), 0);
}

TEST(MappingCost, WeightedDistanceSum) {
  const arch::Device dev = arch::linear(4);
  Circuit c(3);
  c.cx(0, 1);
  c.cx(0, 2);
  c.cx(0, 2);
  const InteractionGraph ig(c);
  // Identity layout: w(0,1)*d(0,1) + w(0,2)*d(0,2) = 1*1 + 2*2 = 5.
  EXPECT_EQ(mapping_cost(ig, dev.graph, Layout(3, 4)), 5);
  // Put logical 2 next to logical 0: cost 1*2 + 2*1 = 4.
  const Layout better = Layout::from_l2p({1, 3, 2}, 4);
  EXPECT_EQ(mapping_cost(ig, dev.graph, better), 4);
}

TEST(GreedyInteractionLayout, PlacesHotPairAdjacent) {
  const arch::Device dev = arch::linear(5);
  Circuit c(3);
  for (int i = 0; i < 10; ++i) c.cx(0, 1);
  c.cx(1, 2);
  const Layout layout = greedy_interaction_layout(c, dev.graph);
  EXPECT_EQ(dev.graph.distance(layout.physical(0), layout.physical(1)), 1);
}

TEST(GreedyInteractionLayout, InjectiveAndDeterministic) {
  const arch::Device dev = arch::ibm_q20_tokyo();
  const Circuit c = workloads::qft(10);
  const Layout a = greedy_interaction_layout(c, dev.graph);
  const Layout b = greedy_interaction_layout(c, dev.graph);
  EXPECT_EQ(a, b);
  std::vector<bool> used(20, false);
  for (Qubit q = 0; q < 10; ++q) {
    const Qubit p = a.physical(q);
    EXPECT_FALSE(used[static_cast<std::size_t>(p)]);
    used[static_cast<std::size_t>(p)] = true;
  }
}

TEST(GreedyInteractionLayout, BeatsWorstCaseOnStarCircuit) {
  // Star interaction: everything talks to qubit 0; greedy should place
  // qubit 0 centrally, beating the identity corner placement on cost.
  const arch::Device dev = arch::grid(3, 3);
  Circuit c(5);
  for (Qubit q = 1; q < 5; ++q) c.cx(0, q);
  const InteractionGraph ig(c);
  const Layout greedy = greedy_interaction_layout(c, dev.graph);
  EXPECT_LE(mapping_cost(ig, dev.graph, greedy),
            mapping_cost(ig, dev.graph, Layout(5, 9)));
  // All four partners adjacent to the hub is achievable on a 3x3 grid.
  EXPECT_EQ(mapping_cost(ig, dev.graph, greedy), 4);
}

}  // namespace
}  // namespace codar::layout
