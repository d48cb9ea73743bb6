#include "codar/ir/circuit.hpp"

#include <gtest/gtest.h>

namespace codar::ir {
namespace {

TEST(Circuit, StartsEmpty) {
  const Circuit c(4, "test");
  EXPECT_EQ(c.num_qubits(), 4);
  EXPECT_EQ(c.name(), "test");
  EXPECT_TRUE(c.empty());
  EXPECT_EQ(c.size(), 0u);
}

TEST(Circuit, AddAndAccess) {
  Circuit c(3);
  c.h(0);
  c.cx(0, 1);
  c.t(2);
  ASSERT_EQ(c.size(), 3u);
  EXPECT_EQ(c.gate(0).kind(), GateKind::kH);
  EXPECT_EQ(c.gate(1).kind(), GateKind::kCX);
  EXPECT_EQ(c.gate(2).qubit(0), 2);
}

TEST(Circuit, RejectsOutOfRangeQubits) {
  Circuit c(2);
  EXPECT_THROW(c.h(2), ContractViolation);
  EXPECT_THROW(c.cx(0, 5), ContractViolation);
  EXPECT_THROW(c.gate(0), ContractViolation);
}

TEST(Circuit, UsedQubitCount) {
  Circuit c(10);
  EXPECT_EQ(c.used_qubit_count(), 0);
  c.h(3);
  EXPECT_EQ(c.used_qubit_count(), 4);
  c.cx(3, 7);
  EXPECT_EQ(c.used_qubit_count(), 8);
}

TEST(Circuit, ReversedReversesOrder) {
  Circuit c(2);
  c.h(0);
  c.cx(0, 1);
  c.t(1);
  const Circuit r = c.reversed();
  ASSERT_EQ(r.size(), 3u);
  EXPECT_EQ(r.gate(0).kind(), GateKind::kT);
  EXPECT_EQ(r.gate(1).kind(), GateKind::kCX);
  EXPECT_EQ(r.gate(2).kind(), GateKind::kH);
}

TEST(Circuit, AppendConcatenates) {
  Circuit a(3);
  a.h(0);
  Circuit b(3);
  b.cx(1, 2);
  a.append(b);
  ASSERT_EQ(a.size(), 2u);
  EXPECT_EQ(a.gate(1).kind(), GateKind::kCX);
}

TEST(Circuit, AppendRejectsWiderCircuit) {
  Circuit narrow(2);
  Circuit wide(5);
  EXPECT_THROW(narrow.append(wide), ContractViolation);
}

TEST(Circuit, RemappedRelocatesQubits) {
  Circuit c(2);
  c.h(0);
  c.cx(0, 1);
  const std::vector<Qubit> remap = {4, 2};
  const Circuit r = c.remapped(remap, 5);
  EXPECT_EQ(r.num_qubits(), 5);
  EXPECT_EQ(r.gate(0).qubit(0), 4);
  EXPECT_EQ(r.gate(1).qubit(0), 4);
  EXPECT_EQ(r.gate(1).qubit(1), 2);
}

TEST(Circuit, RemappedRejectsShortMap) {
  Circuit c(3);
  c.h(2);
  const std::vector<Qubit> remap = {0, 1};  // too short
  EXPECT_THROW(c.remapped(remap, 5), ContractViolation);
}

// -- Fingerprints -----------------------------------------------------------

TEST(CircuitFingerprint, PinnedValues) {
  // Pinned across runs, platforms and build modes: the serve route cache
  // keys on these, so a silent change would invalidate persisted caches.
  // If a fingerprint-schema change is intentional, bump the version tag in
  // Circuit::fingerprint and re-pin.
  Circuit ghz(3, "ghz");
  ghz.h(0);
  ghz.cx(0, 1);
  ghz.cx(1, 2);
  EXPECT_EQ(ghz.fingerprint(), 0x2c6528ed2659d711ull);

  Circuit rot(2);
  rot.rz(0, 0.5);
  rot.cx(0, 1);
  EXPECT_EQ(rot.fingerprint(), 0x815b71b962e6d544ull);
}

TEST(CircuitFingerprint, IgnoresNameButNotStructure) {
  Circuit a(3, "first");
  a.h(0);
  a.cx(0, 1);
  Circuit b(3, "second");
  b.h(0);
  b.cx(0, 1);
  EXPECT_EQ(a.fingerprint(), b.fingerprint());

  b.set_name("first");
  b.t(2);
  EXPECT_NE(a.fingerprint(), b.fingerprint());

  // Register width, operand order and parameter values all distinguish.
  Circuit wide(4, "first");
  wide.h(0);
  wide.cx(0, 1);
  EXPECT_NE(a.fingerprint(), wide.fingerprint());

  Circuit flipped(3, "first");
  flipped.h(0);
  flipped.cx(1, 0);
  EXPECT_NE(a.fingerprint(), flipped.fingerprint());

  Circuit angle_a(1);
  angle_a.rz(0, 0.25);
  Circuit angle_b(1);
  angle_b.rz(0, 0.50);
  EXPECT_NE(angle_a.fingerprint(), angle_b.fingerprint());
}

TEST(CircuitFingerprint, GateOrderMatters) {
  Circuit ab(2);
  ab.h(0);
  ab.h(1);
  Circuit ba(2);
  ba.h(1);
  ba.h(0);
  EXPECT_NE(ab.fingerprint(), ba.fingerprint());
}

}  // namespace
}  // namespace codar::ir
