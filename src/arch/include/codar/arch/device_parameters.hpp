#pragma once

// The Table I survey: per-technology device parameters (available gates,
// fidelities, durations, coherence times). This is reference data the
// paper reports, backing the duration presets and the noise models;
// bench_paper reprints it.

#include <string>
#include <vector>

namespace codar::arch {

/// One column of the paper's Table I.
struct DeviceParameters {
  std::string device;            ///< e.g. "Ion Q5", "IBM Q20".
  std::string technology;        ///< "ion trap", "superconducting", ...
  std::string one_qubit_gates;   ///< Available 1-qubit gate alphabet.
  std::string two_qubit_gates;   ///< Available 2-qubit gate alphabet.
  double fidelity_1q;            ///< 1-qubit gate fidelity (fraction).
  double fidelity_2q;            ///< 2-qubit gate fidelity (fraction).
  double fidelity_readout;       ///< 1-qubit readout fidelity (fraction).
  double time_1q_us;             ///< 1-qubit gate time in microseconds.
  double time_2q_us;             ///< 2-qubit gate time in microseconds.
  double t1_us;                  ///< Depolarization time T1 (µs); <0 = ~inf.
  double t2_us;                  ///< Dephasing time T2 (µs); <0 = ~inf.
};

/// All Table I columns. Values are the representative midpoints of the
/// ranges the paper cites.
const std::vector<DeviceParameters>& table1_parameters();

/// Duration ratio 2q/1q for a technology entry, rounded to whole cycles
/// (>=1). This is how Table I's timing column induces a DurationMap.
int duration_ratio_cycles(const DeviceParameters& params);

}  // namespace codar::arch
