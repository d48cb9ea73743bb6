#include "codar/schedule/scheduler.hpp"

#include <algorithm>

namespace codar::schedule {

namespace {

/// Shared ASAP loop; `duration_of` resolves one gate's duration.
template <typename DurationOf>
Schedule asap_schedule_impl(const ir::Circuit& circuit,
                            DurationOf&& duration_of) {
  Schedule schedule;
  schedule.gates.reserve(circuit.size());
  std::vector<Duration> avail(static_cast<std::size_t>(circuit.num_qubits()),
                              0);
  for (std::size_t i = 0; i < circuit.size(); ++i) {
    const ir::Gate& g = circuit.gate(i);
    Duration start = 0;
    for (const ir::Qubit q : g.qubits()) {
      start = std::max(start, avail[static_cast<std::size_t>(q)]);
    }
    const Duration finish = start + duration_of(g);
    for (const ir::Qubit q : g.qubits()) {
      avail[static_cast<std::size_t>(q)] = finish;
    }
    schedule.gates.push_back(ScheduledGate{i, start, finish});
    schedule.makespan = std::max(schedule.makespan, finish);
  }
  return schedule;
}

}  // namespace

Schedule asap_schedule(const ir::Circuit& circuit,
                       const arch::DurationMap& durations) {
  return asap_schedule_impl(circuit,
                            [&](const ir::Gate& g) { return durations.of(g); });
}

Schedule asap_schedule(const ir::Circuit& circuit,
                       const arch::Device& device) {
  return asap_schedule_impl(circuit, [&](const ir::Gate& g) {
    return device.duration(g, g.qubits());
  });
}

Duration weighted_depth(const ir::Circuit& circuit,
                        const arch::DurationMap& durations) {
  return asap_schedule(circuit, durations).makespan;
}

Duration weighted_depth(const ir::Circuit& circuit,
                        const arch::Device& device) {
  return asap_schedule(circuit, device).makespan;
}

}  // namespace codar::schedule
