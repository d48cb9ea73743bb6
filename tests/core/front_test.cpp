#include "codar/core/front.hpp"

#include <ostream>
#include <random>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "codar/core/commutativity.hpp"
#include "codar/ir/circuit.hpp"
#include "codar/workloads/generators.hpp"

namespace codar::core {
namespace {

using ir::Circuit;
using ir::Gate;
using ir::Qubit;

std::vector<Gate> gates_of(const Circuit& c) {
  return {c.gates().begin(), c.gates().end()};
}

/// The rescan definition of the CF set over the given alive set, via the
/// reference commutative_front() (positions within `pending` mapped back to
/// gate indices).
std::vector<int> rescan_front(const std::vector<Gate>& gates,
                              const std::vector<char>& alive, int window,
                              bool use_commutativity) {
  std::vector<int> pending;
  for (std::size_t i = 0; i < gates.size(); ++i) {
    if (alive[i]) pending.push_back(static_cast<int>(i));
  }
  std::vector<int> front;
  for (const std::size_t pos :
       commutative_front(gates, pending, window, use_commutativity)) {
    front.push_back(pending[pos]);
  }
  return front;
}

std::vector<int> as_vector(std::span<const int> s) {
  return {s.begin(), s.end()};
}

TEST(CommutativeFrontStructure, EmptySequence) {
  const std::vector<Gate> gates;
  const CommutativeFront front(gates, 10, true);
  EXPECT_EQ(front.live_count(), 0u);
  EXPECT_TRUE(front.front().empty());
}

TEST(CommutativeFrontStructure, IndependentGatesAllFront) {
  Circuit c(4);
  c.h(0);
  c.h(1);
  c.cx(2, 3);
  const std::vector<Gate> gates = gates_of(c);
  CommutativeFront front(gates, 0, true);
  EXPECT_EQ(as_vector(front.front()), (std::vector<int>{0, 1, 2}));
  front.retire(1);
  EXPECT_EQ(as_vector(front.front()), (std::vector<int>{0, 2}));
  EXPECT_EQ(front.live_count(), 2u);
  EXPECT_FALSE(front.alive(1));
}

TEST(CommutativeFrontStructure, CommutingCxPairSharesFront) {
  // CX(0,3) and CX(2,3) share target q3 and commute (Definition 1), so
  // both are CF; the plain DAG front exposes only the first.
  Circuit c(4);
  c.cx(0, 3);
  c.cx(2, 3);
  const std::vector<Gate> gates = gates_of(c);
  CommutativeFront cf(gates, 0, true);
  EXPECT_EQ(as_vector(cf.front()), (std::vector<int>{0, 1}));
  CommutativeFront dag(gates, 0, false);
  EXPECT_EQ(as_vector(dag.front()), (std::vector<int>{0}));
}

TEST(CommutativeFrontStructure, RetireUnblocksSuccessor) {
  Circuit c(3);
  c.h(0);
  c.cx(0, 1);
  c.cx(1, 2);
  const std::vector<Gate> gates = gates_of(c);
  CommutativeFront front(gates, 0, true);
  EXPECT_EQ(as_vector(front.front()), (std::vector<int>{0}));
  front.retire(0);
  EXPECT_EQ(as_vector(front.front()), (std::vector<int>{1}));
  front.retire(1);
  EXPECT_EQ(as_vector(front.front()), (std::vector<int>{2}));
}

TEST(CommutativeFrontStructure, WindowSlidesAsGatesRetire) {
  // Window 1: only the first alive gate is a CF candidate even when later
  // gates act on disjoint wires.
  Circuit c(4);
  c.h(0);
  c.h(1);
  c.h(2);
  const std::vector<Gate> gates = gates_of(c);
  CommutativeFront front(gates, 1, true);
  EXPECT_EQ(as_vector(front.front()), (std::vector<int>{0}));
  front.retire(0);
  EXPECT_EQ(as_vector(front.front()), (std::vector<int>{1}));
  front.retire(1);
  EXPECT_EQ(as_vector(front.front()), (std::vector<int>{2}));
}

TEST(CommutativeFrontStructure, BarrierFencesItsWires) {
  Circuit c(3);
  const Qubit fence[] = {0, 1};
  c.h(0);
  c.barrier(fence);
  c.h(1);
  c.h(2);
  const std::vector<Gate> gates = gates_of(c);
  CommutativeFront front(gates, 0, true);
  // h(0) and h(2) are front; the barrier waits on h(0), h(1) on the fence.
  EXPECT_EQ(as_vector(front.front()), (std::vector<int>{0, 3}));
  front.retire(0);
  EXPECT_EQ(as_vector(front.front()), (std::vector<int>{1, 3}));
  front.retire(1);
  EXPECT_EQ(as_vector(front.front()), (std::vector<int>{2, 3}));
}

TEST(CommutativeFrontStructure, RetireRejectsDeadGates) {
  Circuit c(2);
  c.h(0);
  c.h(0);
  const std::vector<Gate> gates = gates_of(c);
  CommutativeFront front(gates, 0, true);
  front.retire(0);
  EXPECT_THROW(front.retire(0), ContractViolation);  // already dead
}

/// Where a differential case's circuit comes from.
enum class Source {
  kRandom,  ///< random_circuit (CX plus h/x/t/tdg/s/rz), a fence, a measure.
  kQft,     ///< qft(8): cu1 ladders that commute along each wire.
  kIsing,   ///< ising_trotter(8, 4): rzz + rx layers.
  kQaoa,    ///< qaoa_maxcut(8, 2, seed).
  kMix,     ///< controlled_mix(8, 120, seed).
};

/// Differential property: drive the incremental structure through random
/// retirement orders and compare against the rescan definition after every
/// step, across circuit sources, windows and both commutativity settings.
struct FrontCase {
  int num_qubits;
  int num_gates;
  double two_qubit_fraction;
  int window;
  bool use_commutativity;
  std::uint64_t seed;
  Source source = Source::kRandom;
};

/// Controlled gates and rotations that commute in long runs (cz, cu1, crz,
/// rzz), ones that mostly do not (cy, ch, rx), same-pair CX runs and,
/// halfway, a fence across every wire, chained in <= 3-qubit links as the
/// QASM frontend emits it. In `cx a,b; cx a,b; cx b,a` the second CX walks
/// past the first and the reversed one parks both its slots on the second.
Circuit controlled_mix(int n, int num_gates, std::uint64_t seed) {
  Circuit c(n);
  std::mt19937_64 rng(seed);
  const auto qubit = [&] { return static_cast<Qubit>(rng() % n); };
  for (int k = 0; k < num_gates; ++k) {
    if (k == num_gates / 2) {
      for (Qubit q = 0; q + 1 < n; q += 2) {
        const Qubit link[] = {q, q + 1, q + 2};
        c.barrier(std::span(link, q + 2 < n ? 3 : 2));
      }
    }
    const Qubit a = qubit();
    Qubit b = qubit();
    while (b == a) b = qubit();
    const double theta = 0.125 * static_cast<double>(1 + rng() % 7);
    switch (rng() % 8) {
      case 0: c.cz(a, b); break;
      case 1: c.cu1(a, b, theta); break;
      case 2: c.crz(a, b, theta); break;
      case 3: c.cy(a, b); break;
      case 4: c.ch(a, b); break;
      case 5: c.rzz(a, b, theta); break;
      case 6: c.rx(a, theta); break;
      default:
        c.cx(a, b);
        c.cx(a, b);
        c.cx(b, a);
        break;
    }
  }
  return c;
}

Circuit circuit_of(const FrontCase& tc) {
  switch (tc.source) {
    case Source::kQft:
      return workloads::qft(tc.num_qubits);
    case Source::kIsing:
      return workloads::ising_trotter(tc.num_qubits, 4);
    case Source::kQaoa:
      return workloads::qaoa_maxcut(tc.num_qubits, 2, tc.seed);
    case Source::kMix:
      return controlled_mix(tc.num_qubits, 120, tc.seed);
    case Source::kRandom:
      break;
  }
  Circuit c = workloads::random_circuit(tc.num_qubits, tc.num_gates,
                                        tc.two_qubit_fraction, tc.seed);
  // Sprinkle in barriers and measures so non-unitary fencing is covered.
  const Qubit fence[] = {0, static_cast<Qubit>(tc.num_qubits - 1)};
  c.barrier(fence);
  c.measure(0);
  return c;
}

class CommutativeFrontDifferential
    : public ::testing::TestWithParam<FrontCase> {};

TEST_P(CommutativeFrontDifferential, MatchesRescanUnderRandomRetirement) {
  const FrontCase& tc = GetParam();
  const std::vector<Gate> gates = gates_of(circuit_of(tc));

  std::vector<char> alive(gates.size(), 1);
  CommutativeFront front(gates, tc.window, tc.use_commutativity);
  std::mt19937_64 rng(tc.seed * 7919 + 13);
  while (front.live_count() > 0) {
    const std::vector<int> expected =
        rescan_front(gates, alive, tc.window, tc.use_commutativity);
    ASSERT_EQ(as_vector(front.front()), expected)
        << "diverged at live_count " << front.live_count();
    ASSERT_FALSE(expected.empty());
    const int victim = expected[rng() % expected.size()];
    front.retire(victim);
    alive[static_cast<std::size_t>(victim)] = 0;
  }
  EXPECT_TRUE(front.front().empty());
}

std::string case_name(const FrontCase& p) {
  static const char* const kSources[] = {"", "qft", "ising", "qaoa", "mix"};
  std::string name =
      p.source == Source::kRandom
          ? "q" + std::to_string(p.num_qubits) + "_g" +
                std::to_string(p.num_gates)
          : kSources[static_cast<int>(p.source)] +
                std::to_string(p.num_qubits);
  return name + "_w" + std::to_string(p.window) +
         (p.use_commutativity ? "_cf" : "_dag") + "_s" +
         std::to_string(p.seed);
}

void PrintTo(const FrontCase& tc, std::ostream* os) { *os << case_name(tc); }

std::string param_name(const ::testing::TestParamInfo<FrontCase>& pinfo) {
  return case_name(pinfo.param);
}

INSTANTIATE_TEST_SUITE_P(
    RandomRetirements, CommutativeFrontDifferential,
    ::testing::Values(FrontCase{4, 60, 0.5, 0, true, 1},
                      FrontCase{4, 60, 0.5, 0, false, 2},
                      FrontCase{6, 120, 0.4, 8, true, 3},
                      FrontCase{6, 120, 0.4, 8, false, 4},
                      FrontCase{8, 150, 0.6, 1, true, 5},
                      FrontCase{8, 150, 0.6, 150, true, 6},
                      FrontCase{3, 80, 0.7, 2, true, 7},
                      FrontCase{10, 200, 0.5, 25, true, 8},
                      FrontCase{10, 200, 0.5, 25, false, 9},
                      FrontCase{5, 100, 0.3, 3, true, 10}),
    param_name);

/// Every structured source at windows {0, 1, 8, 150} under both
/// commutativity settings: long commuting runs, where a resumed walk
/// passes over many gates.
std::vector<FrontCase> commuting_run_cases() {
  std::vector<FrontCase> cases;
  std::uint64_t seed = 100;
  for (const Source source :
       {Source::kQft, Source::kIsing, Source::kQaoa, Source::kMix}) {
    for (const int window : {0, 1, 8, 150}) {
      for (const bool use_commutativity : {true, false}) {
        cases.push_back(
            {8, 0, 0.0, window, use_commutativity, ++seed, source});
      }
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(CommutingRuns, CommutativeFrontDifferential,
                         ::testing::ValuesIn(commuting_run_cases()),
                         param_name);

}  // namespace
}  // namespace codar::core
