#pragma once

// Duration-weighted ASAP scheduling. The paper's quality metric is the
// *weighted depth* of the routed circuit: the makespan of an as-soon-as-
// possible schedule in which each gate occupies its qubits for τ(gate)
// cycles — exactly the execution-time model induced by CODAR's qubit locks.
// Both routers' outputs are scored with this one scheduler, so the
// comparison is apples-to-apples.

#include <vector>

#include "codar/arch/device.hpp"
#include "codar/arch/durations.hpp"
#include "codar/ir/circuit.hpp"

namespace codar::schedule {

using arch::Duration;

/// Start/finish times for one gate of the scheduled circuit.
struct ScheduledGate {
  std::size_t gate_index;  ///< Index into the source circuit.
  Duration start;
  Duration finish;
};

/// Full ASAP schedule of a circuit.
struct Schedule {
  std::vector<ScheduledGate> gates;
  Duration makespan = 0;  ///< Weighted depth.
};

/// Schedules every gate as early as its qubits allow (program order,
/// qubit-exclusivity). Barriers take 0 cycles but still synchronize.
Schedule asap_schedule(const ir::Circuit& circuit,
                       const arch::DurationMap& durations);

/// Device-resolved variant for *routed* circuits, whose qubit indices are
/// physical: each gate occupies its qubits for Device::duration(gate,
/// qubits) cycles, so per-qubit/per-edge calibration shapes the schedule.
/// Identical to the DurationMap overload when the calibration is empty.
Schedule asap_schedule(const ir::Circuit& circuit,
                       const arch::Device& device);

/// Weighted depth = makespan of the ASAP schedule.
Duration weighted_depth(const ir::Circuit& circuit,
                        const arch::DurationMap& durations);

/// Device-resolved weighted depth (physical circuits; see asap_schedule).
Duration weighted_depth(const ir::Circuit& circuit,
                        const arch::Device& device);

}  // namespace codar::schedule
