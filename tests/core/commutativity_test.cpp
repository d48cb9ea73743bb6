#include "codar/core/commutativity.hpp"

#include <gtest/gtest.h>

#include <numbers>
#include <random>
#include <thread>
#include <vector>

#include "codar/ir/unitary.hpp"
#include "support/reference_front.hpp"

namespace codar::core {
namespace {

using ir::Circuit;
using ir::Gate;
using ir::GateKind;
using ir::Qubit;
using codar::testing::commutative_front;

TEST(GatesCommute, DisjointAlwaysCommute) {
  EXPECT_TRUE(gates_commute(Gate::cx(0, 1), Gate::cx(2, 3)));
  EXPECT_TRUE(gates_commute(Gate::h(0), Gate::measure(1)));
  EXPECT_TRUE(gates_commute(Gate::measure(0), Gate::measure(1)));
}

TEST(GatesCommute, MeasureAndBarrierBlockOverlaps) {
  EXPECT_FALSE(gates_commute(Gate::measure(0), Gate::h(0)));
  EXPECT_FALSE(gates_commute(Gate::measure(0), Gate::measure(0)));
  const Qubit qs[] = {0, 1};
  EXPECT_FALSE(gates_commute(Gate::barrier(qs), Gate::cx(0, 2)));
  EXPECT_FALSE(gates_commute(Gate::z(0), Gate::measure(0)));
}

TEST(GatesCommute, PaperExampleSharedTargetCxs) {
  // The paper's §IV-B example: CX q1,q3 then CX q2,q3 share the target q3
  // and commute, so both are CF gates.
  EXPECT_TRUE(gates_commute(Gate::cx(1, 3), Gate::cx(2, 3)));
}

TEST(GatesCommute, CxStructure) {
  EXPECT_TRUE(gates_commute(Gate::cx(0, 1), Gate::cx(0, 2)));   // shared control
  EXPECT_TRUE(gates_commute(Gate::cx(0, 2), Gate::cx(1, 2)));   // shared target
  EXPECT_FALSE(gates_commute(Gate::cx(0, 1), Gate::cx(1, 2)));  // chain
  EXPECT_FALSE(gates_commute(Gate::cx(0, 1), Gate::cx(1, 0)));  // reversed
  EXPECT_TRUE(gates_commute(Gate::cx(0, 1), Gate::cx(0, 1)));   // identical
}

TEST(GatesCommute, DiagonalFamily) {
  EXPECT_TRUE(gates_commute(Gate::t(0), Gate::cz(0, 1)));
  EXPECT_TRUE(gates_commute(Gate::cu1(0, 1, 0.3), Gate::cu1(1, 2, 0.9)));
  EXPECT_TRUE(gates_commute(Gate::rzz(0, 1, 0.5), Gate::crz(1, 2, 0.7)));
  EXPECT_TRUE(gates_commute(Gate::rz(1, 0.2), Gate::rzz(0, 1, 0.4)));
}

TEST(GatesCommute, SingleQubitOnCxWires) {
  EXPECT_TRUE(gates_commute(Gate::t(0), Gate::cx(0, 1)));    // diag on control
  EXPECT_TRUE(gates_commute(Gate::x(1), Gate::cx(0, 1)));    // X on target
  EXPECT_TRUE(gates_commute(Gate::rx(1, 0.5), Gate::cx(0, 1)));
  EXPECT_FALSE(gates_commute(Gate::h(0), Gate::cx(0, 1)));
  EXPECT_FALSE(gates_commute(Gate::h(1), Gate::cx(0, 1)));
  EXPECT_FALSE(gates_commute(Gate::x(0), Gate::cx(0, 1)));
  EXPECT_FALSE(gates_commute(Gate::t(1), Gate::cx(0, 1)));
}

TEST(GatesCommute, SwapNeverCommutesWithOverlapExceptSpecialCases) {
  EXPECT_FALSE(gates_commute(Gate::swap(0, 1), Gate::h(0)));
  EXPECT_FALSE(gates_commute(Gate::swap(0, 1), Gate::cx(1, 2)));
  // SWAP commutes with a gate symmetric in both its qubits.
  EXPECT_TRUE(gates_commute(Gate::swap(0, 1), Gate::cz(0, 1)));
}

/// Property check: the symbolic rule table must agree with the exact
/// unitary ground truth for every pair of alphabet gates under every qubit
/// overlap pattern on three wires. The matrix fallback is memoized per
/// thread, so each pair is asked twice — a miss, then a hit — and both
/// answers must match.
class CommutativityGroundTruth : public ::testing::Test {
 protected:
  static std::vector<Gate> gates_on(Qubit a, Qubit b) {
    return {
        Gate::x(a),          Gate::y(a),
        Gate::z(a),          Gate::h(a),
        Gate::s(a),          Gate::t(a),
        Gate::sx(a),         Gate::rx(a, 0.7),
        Gate::ry(a, 0.9),    Gate::rz(a, 1.1),
        Gate::u1(a, 0.4),    Gate::u3(a, 0.2, 0.3, 0.4),
        Gate::cx(a, b),      Gate::cx(b, a),
        Gate::cz(a, b),      Gate::cy(a, b),
        Gate::ch(a, b),      Gate::crz(a, b, 0.8),
        Gate::cu1(a, b, 0.5), Gate::rzz(a, b, 0.6),
        Gate::swap(a, b),
        // Tolerance edge: within 1e-9 of the identity (up to phase), so
        // the memo key must keep them apart from their neighbours.
        Gate::rz(a, 1e-12),  Gate::rz(a, 2.0 * std::numbers::pi),
        Gate::u1(a, 0.0),
    };
  }

  /// Every ordered pair of gates_on() under each overlap pattern over
  /// wires {0,1,2}: identical, shared first, shared second, the two
  /// chains ({1,2}, {2,0}) and reversed ({1,0}) — every way two 2-qubit
  /// gates can overlap.
  static std::vector<std::pair<Gate, Gate>> overlap_pairs() {
    const std::vector<std::pair<std::pair<Qubit, Qubit>,
                                std::pair<Qubit, Qubit>>> patterns = {
        {{0, 1}, {0, 1}}, {{0, 1}, {0, 2}}, {{0, 1}, {2, 1}},
        {{0, 1}, {1, 2}}, {{0, 1}, {2, 0}}, {{0, 1}, {1, 0}},
    };
    std::vector<std::pair<Gate, Gate>> pairs;
    for (const auto& [qa, qb] : patterns) {
      for (const Gate& ga : gates_on(qa.first, qa.second)) {
        for (const Gate& gb : gates_on(qb.first, qb.second)) {
          pairs.emplace_back(ga, gb);
        }
      }
    }
    return pairs;
  }

  /// Seeded 1-qubit pairs on one wire that the rule table leaves to the
  /// matrix fallback, each a distinct memo key of one shape (u3 against
  /// rx), so only the parameter bits tell them apart. Every other u3 is an
  /// X rotation in disguise (phi = -pi/2, lambda = pi/2) and commutes; the
  /// rest are random and do not.
  static std::vector<std::pair<Gate, Gate>> fallback_pairs(std::size_t count) {
    std::mt19937_64 rng(20200720);
    std::uniform_real_distribution<double> angle(-4.0, 4.0);
    constexpr double kHalfPi = std::numbers::pi / 2.0;
    std::vector<std::pair<Gate, Gate>> pairs;
    for (std::size_t k = 0; k < count; ++k) {
      const double theta = angle(rng);
      const bool x_axis = k % 2 == 0;
      const double phi = x_axis ? -kHalfPi : angle(rng);
      const double lambda = x_axis ? kHalfPi : angle(rng);
      pairs.emplace_back(Gate::u3(0, theta, phi, lambda),
                         Gate::rx(0, angle(rng)));
    }
    return pairs;
  }

  /// Runs `body` on a new thread, whose memo starts empty.
  template <typename F>
  static void on_fresh_thread(F body) {
    std::thread worker(body);
    worker.join();
  }
};

TEST_F(CommutativityGroundTruth, RuleTableMatchesMatrices) {
  int checked = 0;
  on_fresh_thread([&] {
    for (const auto& [ga, gb] : overlap_pairs()) {
      const bool expected = ir::unitaries_commute(ga, gb);
      EXPECT_EQ(gates_commute(ga, gb), expected)
          << "cold: " << ga.to_string() << " vs " << gb.to_string();
      EXPECT_EQ(gates_commute(ga, gb), expected)
          << "warm: " << ga.to_string() << " vs " << gb.to_string();
      ++checked;
    }
  });
  EXPECT_GT(checked, 2000);
}

TEST_F(CommutativityGroundTruth, ZeroAngleCrzIsJudgedConservatively) {
  // crz(0) is the identity. The rule table decides CRZ pairs from the
  // kind alone, so on some overlaps it answers "does not commute" where
  // the matrices commute; that costs routing freedom, never correctness.
  // It must never claim the reverse, and the memo must not flip it.
  const std::vector<std::pair<Qubit, Qubit>> wires = {
      {0, 1}, {1, 0}, {0, 2}, {2, 0}, {1, 2}, {2, 1}};
  std::vector<std::pair<Gate, Gate>> pairs;
  for (const auto& [qa, qb] : wires) {
    const Gate zero = Gate::crz(qa, qb, 0.0);
    for (const Gate& other : gates_on(0, 1)) {
      pairs.emplace_back(zero, other);
      pairs.emplace_back(other, zero);
    }
  }
  on_fresh_thread([&] {
    for (const auto& [ga, gb] : pairs) {
      const bool cold = gates_commute(ga, gb);
      EXPECT_EQ(gates_commute(ga, gb), cold)
          << ga.to_string() << " vs " << gb.to_string();
      if (cold) {
        EXPECT_TRUE(ir::unitaries_commute(ga, gb))
            << ga.to_string() << " vs " << gb.to_string();
      }
    }
  });
}

TEST_F(CommutativityGroundTruth, MemoSurvivesEveryTableSlotBeingOverwritten) {
  // 16x more distinct fallback keys than the table has slots, interleaved
  // with the alphabet pairs: every slot is evicted many times over, and
  // every answer must still equal the matrices.
  const auto alphabet = overlap_pairs();
  const auto seeded = fallback_pairs(16 * kCommuteMemoSlots);
  on_fresh_thread([&] {
    std::size_t next = 0;
    for (const auto& [ga, gb] : seeded) {
      ASSERT_EQ(gates_commute(ga, gb), ir::unitaries_commute(ga, gb))
          << ga.to_string() << " vs " << gb.to_string();
      const auto& [pa, pb] = alphabet[next++ % alphabet.size()];
      ASSERT_EQ(gates_commute(pa, pb), ir::unitaries_commute(pa, pb))
          << pa.to_string() << " vs " << pb.to_string();
    }
  });
}

TEST_F(CommutativityGroundTruth, ThreadsShareNoMemoState) {
  // Four threads ask the same pairs at once; each has its own table, so
  // answers match the single-threaded ground truth (and TSan sees no
  // shared state).
  auto pairs = overlap_pairs();
  for (const auto& pair : fallback_pairs(2 * kCommuteMemoSlots)) {
    pairs.push_back(pair);
  }
  std::vector<char> expected;
  expected.reserve(pairs.size());
  for (const auto& [ga, gb] : pairs) {
    expected.push_back(ir::unitaries_commute(ga, gb) ? 1 : 0);
  }
  std::vector<int> mismatches(4, 0);
  std::vector<std::thread> workers;
  for (std::size_t t = 0; t < mismatches.size(); ++t) {
    workers.emplace_back([&, t] {
      for (int pass = 0; pass < 2; ++pass) {
        for (std::size_t i = 0; i < pairs.size(); ++i) {
          const bool got = gates_commute(pairs[i].first, pairs[i].second);
          if (got != (expected[i] != 0)) ++mismatches[t];
        }
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
  for (const int count : mismatches) EXPECT_EQ(count, 0);
}

TEST(CommutativeFront, PlainFrontWithoutCommutativity) {
  Circuit c(3);
  c.cx(0, 1);  // 0
  c.cx(0, 2);  // 1 shares control with 0
  c.h(2);      // 2 blocked by 1
  const auto front = commutative_front(c, 0, /*use_commutativity=*/false);
  EXPECT_EQ(front, (std::vector<std::size_t>{0}));
}

TEST(CommutativeFront, SharedControlExposesBothCxs) {
  Circuit c(3);
  c.cx(0, 1);
  c.cx(0, 2);
  const auto front = commutative_front(c);
  EXPECT_EQ(front, (std::vector<std::size_t>{0, 1}));
}

TEST(CommutativeFront, PaperSharedTargetExample) {
  Circuit c(4);
  c.cx(1, 3);
  c.cx(2, 3);
  const auto front = commutative_front(c);
  EXPECT_EQ(front, (std::vector<std::size_t>{0, 1}));
}

TEST(CommutativeFront, QftPhaseLadderIsMutuallyCommuting) {
  // All CU1 gates of a QFT layer commute; the front should contain every
  // CU1 until the next H.
  Circuit c(4);
  c.cu1(1, 0, 0.5);
  c.cu1(2, 0, 0.25);
  c.cu1(3, 0, 0.125);
  c.h(1);  // blocked: H does not commute with CU1 on the shared wire
  const auto front = commutative_front(c);
  EXPECT_EQ(front, (std::vector<std::size_t>{0, 1, 2}));
}

TEST(CommutativeFront, NonCommutingChainOnlyHead) {
  Circuit c(2);
  c.h(0);
  c.t(0);
  c.h(0);
  const auto front = commutative_front(c);
  EXPECT_EQ(front, (std::vector<std::size_t>{0}));
}

TEST(CommutativeFront, WindowTruncatesScan) {
  Circuit c(6);
  for (Qubit q = 0; q < 6; ++q) c.h(q);  // all independent
  EXPECT_EQ(commutative_front(c, 3).size(), 3u);
  EXPECT_EQ(commutative_front(c, 0).size(), 6u);
}

TEST(CommutativeFront, PendingSubsetRespected) {
  Circuit c(2);
  c.h(0);   // gate 0 (already executed, not pending)
  c.t(0);   // gate 1
  c.x(1);   // gate 2
  std::vector<ir::Gate> gates(c.gates().begin(), c.gates().end());
  const std::vector<int> pending = {1, 2};
  const auto front = commutative_front(gates, pending, 0, true);
  // Positions are within the pending vector.
  EXPECT_EQ(front, (std::vector<std::size_t>{0, 1}));
}

}  // namespace
}  // namespace codar::core
