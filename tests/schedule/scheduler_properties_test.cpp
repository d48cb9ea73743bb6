#include <gtest/gtest.h>

#include "codar/schedule/scheduler.hpp"
#include "codar/workloads/generators.hpp"
#include "support/unweighted_depth.hpp"

namespace codar::schedule {
namespace {

using arch::DurationMap;
using ir::Circuit;
using codar::testing::unweighted_depth;

// Invariant sweeps of the ASAP scheduler over random circuits.

class SchedulerProperties : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  Circuit circuit() const {
    return workloads::random_circuit(8, 250, 0.5, GetParam());
  }
};

TEST_P(SchedulerProperties, MakespanBoundedBySerialSum) {
  const Circuit c = circuit();
  const DurationMap durations;
  Duration serial = 0;
  for (const ir::Gate& g : c.gates()) serial += durations.of(g);
  const Duration makespan = weighted_depth(c, durations);
  EXPECT_LE(makespan, serial);
  EXPECT_GT(makespan, 0);
}

TEST_P(SchedulerProperties, MakespanAtLeastBusiestWire) {
  const Circuit c = circuit();
  const DurationMap durations;
  std::vector<Duration> busy(8, 0);
  for (const ir::Gate& g : c.gates()) {
    for (const ir::Qubit q : g.qubits()) {
      busy[static_cast<std::size_t>(q)] += durations.of(g);
    }
  }
  const Duration busiest = *std::max_element(busy.begin(), busy.end());
  EXPECT_GE(weighted_depth(c, durations), busiest);
}

TEST_P(SchedulerProperties, GatesNeverOverlapOnAWire) {
  const Circuit c = circuit();
  const DurationMap durations;
  const Schedule sched = asap_schedule(c, durations);
  // For each wire, collect intervals and check pairwise disjointness.
  std::vector<std::vector<std::pair<Duration, Duration>>> wires(8);
  for (const ScheduledGate& sg : sched.gates) {
    for (const ir::Qubit q : c.gate(sg.gate_index).qubits()) {
      wires[static_cast<std::size_t>(q)].emplace_back(sg.start, sg.finish);
    }
  }
  for (const auto& intervals : wires) {
    for (std::size_t i = 0; i < intervals.size(); ++i) {
      for (std::size_t j = i + 1; j < intervals.size(); ++j) {
        const bool disjoint = intervals[i].second <= intervals[j].first ||
                              intervals[j].second <= intervals[i].first;
        EXPECT_TRUE(disjoint);
      }
    }
  }
}

TEST_P(SchedulerProperties, ProgramOrderRespectedPerWire) {
  const Circuit c = circuit();
  const Schedule sched = asap_schedule(c, DurationMap());
  std::vector<Duration> last_finish(8, 0);
  for (const ScheduledGate& sg : sched.gates) {
    for (const ir::Qubit q : c.gate(sg.gate_index).qubits()) {
      EXPECT_GE(sg.start, last_finish[static_cast<std::size_t>(q)]);
      last_finish[static_cast<std::size_t>(q)] = sg.finish;
    }
  }
}

TEST_P(SchedulerProperties, UniformDurationsMatchUnweightedDepth) {
  // With every gate at 1 cycle (incl. SWAP), the weighted depth equals
  // the classic layer depth.
  const Circuit c = circuit();
  DurationMap uniform;
  uniform.set_all_single_qubit(1);
  uniform.set_all_two_qubit(1);
  uniform.set(ir::GateKind::kSwap, 1);
  uniform.set(ir::GateKind::kMeasure, 1);
  EXPECT_EQ(weighted_depth(c, uniform),
            static_cast<Duration>(unweighted_depth(c)));
}

INSTANTIATE_TEST_SUITE_P(Seeds, SchedulerProperties,
                         ::testing::Values(11, 22, 33, 44, 55, 66));

}  // namespace
}  // namespace codar::schedule
