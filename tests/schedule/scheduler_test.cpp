#include "codar/schedule/scheduler.hpp"

#include <gtest/gtest.h>

#include "support/unweighted_depth.hpp"

namespace codar::schedule {
namespace {

using arch::DurationMap;
using ir::Circuit;
using ir::Qubit;
using codar::testing::unweighted_depth;

TEST(AsapSchedule, EmptyCircuit) {
  const Circuit c(2);
  const Schedule s = asap_schedule(c, DurationMap());
  EXPECT_EQ(s.makespan, 0);
  EXPECT_TRUE(s.gates.empty());
}

TEST(AsapSchedule, SerialChainAccumulates) {
  Circuit c(1);
  c.h(0);
  c.t(0);
  c.x(0);
  const Schedule s = asap_schedule(c, DurationMap());
  EXPECT_EQ(s.makespan, 3);
  EXPECT_EQ(s.gates[2].start, 2);
}

TEST(AsapSchedule, ParallelGatesOverlap) {
  Circuit c(3);
  c.h(0);
  c.h(1);
  c.h(2);
  const Schedule s = asap_schedule(c, DurationMap());
  EXPECT_EQ(s.makespan, 1);
  for (const ScheduledGate& g : s.gates) EXPECT_EQ(g.start, 0);
}

TEST(AsapSchedule, PaperFig2Timing) {
  // T q[1] (1 cycle) and CX q[0],q[2] (2 cycles) start together at 0; a
  // SWAP on {q1,q3} can start at cycle 1 — the paper's Fig. 2(d) timeline.
  Circuit c(4);
  c.t(1);
  c.cx(0, 2);
  c.swap(1, 3);
  const Schedule s = asap_schedule(c, DurationMap());
  EXPECT_EQ(s.gates[0].start, 0);
  EXPECT_EQ(s.gates[0].finish, 1);
  EXPECT_EQ(s.gates[1].start, 0);
  EXPECT_EQ(s.gates[1].finish, 2);
  EXPECT_EQ(s.gates[2].start, 1);  // waits only for T, not for CX
  EXPECT_EQ(s.gates[2].finish, 7);
  EXPECT_EQ(s.makespan, 7);
}

TEST(AsapSchedule, ConflictingSwapWaitsForCx) {
  // The Fig. 2(c) alternative: SWAP touching the CX's qubit starts at 2.
  Circuit c(4);
  c.t(1);
  c.cx(0, 2);
  c.swap(2, 3);
  const Schedule s = asap_schedule(c, DurationMap());
  EXPECT_EQ(s.gates[2].start, 2);
  EXPECT_EQ(s.makespan, 8);
}

TEST(AsapSchedule, PaperFig1WhatIf) {
  // "T q[2]; CX q[0],q[3]" on the 2x2 lattice (Q0-Q1, Q0-Q2, Q1-Q3,
  // Q2-Q3), followed by each candidate SWAP and the CX on the pair it
  // makes adjacent. SWAPs avoiding Q2 run in parallel with T (Fig. 1d);
  // SWAPs touching Q2 serialize behind it (Fig. 1c).
  struct Candidate {
    Qubit a, b;        // the SWAP
    Qubit cx0, cx3;    // where q[0] and q[3] sit after it
    int swap_start, cx_start, makespan;
  };
  const Candidate candidates[] = {{0, 1, 1, 3, 0, 6, 8},
                                  {1, 3, 0, 1, 0, 6, 8},
                                  {0, 2, 2, 3, 1, 7, 9},
                                  {2, 3, 0, 2, 1, 7, 9}};
  for (const Candidate& cand : candidates) {
    Circuit c(4);
    c.t(2);
    c.swap(cand.a, cand.b);
    c.cx(cand.cx0, cand.cx3);
    const Schedule s = asap_schedule(c, DurationMap());
    EXPECT_EQ(s.gates[1].start, cand.swap_start) << cand.a << "-" << cand.b;
    EXPECT_EQ(s.gates[2].start, cand.cx_start) << cand.a << "-" << cand.b;
    EXPECT_EQ(s.makespan, cand.makespan) << cand.a << "-" << cand.b;
  }
}

TEST(AsapSchedule, BarrierSynchronizesAtZeroCost) {
  Circuit c(2);
  c.cx(0, 1);  // 0..2
  const Qubit both[] = {0, 1};
  c.barrier(both);
  c.h(0);
  c.h(1);
  const Schedule s = asap_schedule(c, DurationMap());
  EXPECT_EQ(s.gates[1].start, 2);
  EXPECT_EQ(s.gates[1].finish, 2);  // zero duration
  EXPECT_EQ(s.gates[2].start, 2);
  EXPECT_EQ(s.makespan, 3);
}

TEST(AsapSchedule, RespectsCustomDurations) {
  DurationMap ion = DurationMap::ion_trap();
  Circuit c(2);
  c.h(0);
  c.cx(0, 1);
  const Schedule s = asap_schedule(c, ion);
  EXPECT_EQ(s.gates[1].start, 1);
  EXPECT_EQ(s.makespan, 13);  // 1 + 12
}

TEST(WeightedDepth, MatchesScheduleMakespan) {
  Circuit c(3);
  c.h(0);
  c.cx(0, 1);
  c.cx(1, 2);
  c.t(2);
  EXPECT_EQ(weighted_depth(c, DurationMap()), 1 + 2 + 2 + 1);
}

TEST(UnweightedDepth, CountsLayers) {
  Circuit c(3);
  c.h(0);      // layer 1
  c.h(1);      // layer 1
  c.cx(0, 1);  // layer 2
  c.cx(1, 2);  // layer 3
  EXPECT_EQ(unweighted_depth(c), 3);
}

TEST(UnweightedDepth, BarriersDoNotAddALayer) {
  Circuit c(2);
  c.h(0);
  const Qubit both[] = {0, 1};
  c.barrier(both);
  c.h(1);
  EXPECT_EQ(unweighted_depth(c), 2);
}

}  // namespace
}  // namespace codar::schedule
