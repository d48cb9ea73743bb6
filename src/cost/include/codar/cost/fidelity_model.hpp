#pragma once

// The calibrated fidelity cost model: maps a (routed circuit, device,
// schedule) triple to per-gate success probabilities and an aggregate
// estimated success probability (ESP). The model resolves every gate
// through Device::fidelity() — so per-qubit/per-edge
// calibration and the SWAP = edge-2q³ convention shape the estimate — and
// charges decoherence only over each qubit's *idle* windows of the ASAP
// schedule (time spent inside a gate is already priced into that gate's
// calibrated fidelity).
//
// The estimate is kept in log-space:
//
//   log ESP = Σ_gates ln F(gate)                        (gate term)
//           + Σ_{q used} ln F_readout(q)                (readout term)
//           + Σ_{q used} −idle_q · (1/T1 + 1/T2)        (decoherence term)
//
// where idle_q = (last_finish_q − first_start_q) − Σ busy_q over the ASAP
// schedule, and an infinite coherence channel contributes rate 0. Explicit
// measure gates in the circuit are counted in the readout term (not the
// gate term); qubits without one are still read out once — every used
// qubit is measured at the end of a real run.

#include <cmath>
#include <vector>

#include "codar/arch/device.hpp"
#include "codar/ir/circuit.hpp"
#include "codar/schedule/scheduler.hpp"

namespace codar::cost {

/// Log-space ESP breakdown plus the per-gate success probabilities (one
/// entry per circuit gate, in program order; barriers are 1.0).
struct EspEstimate {
  std::vector<double> gate_success;  ///< Resolved per-gate fidelity.
  double log_gate = 0.0;         ///< Σ ln F over non-measure gates.
  double log_readout = 0.0;      ///< Σ ln F_readout over used qubits.
  double log_decoherence = 0.0;  ///< −Σ idle_q · (1/T1 + 1/T2).

  double log_esp() const { return log_gate + log_readout + log_decoherence; }
  double esp() const { return std::exp(log_esp()); }
};

/// The estimator. Holds a reference to the device: the model is a
/// transient view, constructed next to the device it prices (the device
/// must outlive it).
class FidelityModel {
 public:
  explicit FidelityModel(const arch::Device& device) : device_(device) {}

  /// Prices a *routed* circuit (physical qubit indices) against the
  /// device's calibrated fidelities and an internally computed
  /// device-resolved ASAP schedule.
  EspEstimate estimate(const ir::Circuit& routed) const;

  /// Same, against a caller-provided schedule of exactly this circuit
  /// (when one is already computed — the report stage schedules anyway).
  EspEstimate estimate(const ir::Circuit& routed,
                       const schedule::Schedule& schedule) const;

 private:
  const arch::Device& device_;
};

}  // namespace codar::cost
