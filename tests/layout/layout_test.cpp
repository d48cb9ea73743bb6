#include "codar/layout/layout.hpp"

#include <gtest/gtest.h>

namespace codar::layout {
namespace {

TEST(Layout, IdentityConstruction) {
  const Layout l(3, 5);
  EXPECT_EQ(l.num_logical(), 3);
  EXPECT_EQ(l.num_physical(), 5);
  for (Qubit q = 0; q < 3; ++q) {
    EXPECT_EQ(l.physical(q), q);
    EXPECT_EQ(l.logical(q), q);
  }
  EXPECT_EQ(l.logical(3), -1);
  EXPECT_EQ(l.logical(4), -1);
}

TEST(Layout, RequiresEnoughPhysicalQubits) {
  EXPECT_THROW(Layout(5, 3), ContractViolation);
}

TEST(Layout, FromL2pValidates) {
  const Layout l = Layout::from_l2p({3, 0, 2}, 4);
  EXPECT_EQ(l.physical(0), 3);
  EXPECT_EQ(l.logical(3), 0);
  EXPECT_EQ(l.logical(1), -1);
  EXPECT_THROW(Layout::from_l2p({0, 0}, 3), ContractViolation);  // not injective
  EXPECT_THROW(Layout::from_l2p({0, 7}, 3), ContractViolation);  // out of range
}

TEST(Layout, SwapPhysicalBothOccupied) {
  Layout l(2, 2);
  l.swap_physical(0, 1);
  EXPECT_EQ(l.physical(0), 1);
  EXPECT_EQ(l.physical(1), 0);
  EXPECT_EQ(l.logical(0), 1);
  EXPECT_EQ(l.logical(1), 0);
}

TEST(Layout, SwapPhysicalWithEmptySlot) {
  Layout l(1, 3);  // logical 0 at physical 0; slots 1, 2 empty
  l.swap_physical(0, 2);
  EXPECT_EQ(l.physical(0), 2);
  EXPECT_EQ(l.logical(0), -1);
  EXPECT_EQ(l.logical(2), 0);
  l.swap_physical(1, 2);
  EXPECT_EQ(l.physical(0), 1);
}

TEST(Layout, SwapIsInvolution) {
  Layout l = Layout::from_l2p({2, 0, 3}, 4);
  const Layout before = l;
  l.swap_physical(1, 3);
  l.swap_physical(1, 3);
  EXPECT_EQ(l, before);
}

TEST(Layout, SwapRejectsBadArguments) {
  Layout l(2, 2);
  EXPECT_THROW(l.swap_physical(0, 0), ContractViolation);
  EXPECT_THROW(l.swap_physical(0, 9), ContractViolation);
}

TEST(RandomLayout, InjectiveAndDeterministic) {
  const Layout a = random_layout(10, 20, 42);
  const Layout b = random_layout(10, 20, 42);
  EXPECT_EQ(a, b);
  std::vector<bool> used(20, false);
  for (Qubit q = 0; q < 10; ++q) {
    const Qubit p = a.physical(q);
    EXPECT_FALSE(used[static_cast<std::size_t>(p)]);
    used[static_cast<std::size_t>(p)] = true;
    EXPECT_EQ(a.logical(p), q);
  }
  const Layout c = random_layout(10, 20, 43);
  EXPECT_FALSE(a == c);  // overwhelmingly likely with different seeds
}

}  // namespace
}  // namespace codar::layout
