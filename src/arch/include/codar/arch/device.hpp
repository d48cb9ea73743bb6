#pragma once

// The device model: coupling graph + kind-level duration/fidelity defaults
// + an optional per-qubit/per-edge calibration overlay, behind one query
// API (duration()/fidelity()) that every router and scheduler goes
// through. Includes the four evaluation architectures of the paper plus
// generic lattice generators for tests and ablations.

#include <cmath>
#include <limits>
#include <span>
#include <string>
#include <utility>

#include "codar/arch/calibration.hpp"
#include "codar/arch/coupling_graph.hpp"
#include "codar/arch/durations.hpp"
#include "codar/arch/fidelity_map.hpp"

namespace codar::arch {

/// Device-level decoherence times in quantum clock cycles (the unit every
/// duration uses), infinity by default — an ideal device never decoheres,
/// which is exactly how every pre-coherence device behaved. Finite values
/// feed the ESP estimator (cost::FidelityModel) and the codar-fid
/// decoherence scoring term; they mirror sim::NoiseParams so an estimate
/// and a noisy simulation describe the same physics.
struct Coherence {
  double t1 = std::numeric_limits<double>::infinity();  ///< Damping time.
  double t2 = std::numeric_limits<double>::infinity();  ///< Dephasing time.

  /// True when either channel is actually active.
  bool any_finite() const { return std::isfinite(t1) || std::isfinite(t2); }

  friend bool operator==(const Coherence&, const Coherence&) = default;
};

/// A named NISQ device model (maQAM static structure A_s). Presets are
/// homogeneous: kind-level durations/fidelities, empty calibration. A
/// calibrated device (loaded from JSON, or built in code) overlays
/// heterogeneous per-qubit/per-edge values; all consumers query through
/// duration()/fidelity(), so homogeneous devices behave exactly as before.
struct Device {
  Device(std::string device_name, CouplingGraph coupling,
         DurationMap duration_defaults = DurationMap(),
         FidelityMap fidelity_defaults = FidelityMap(),
         CalibrationTable calibration_overlay = CalibrationTable())
      : name(std::move(device_name)),
        graph(std::move(coupling)),
        durations(std::move(duration_defaults)),
        fidelities(std::move(fidelity_defaults)),
        calibration(std::move(calibration_overlay)) {}

  std::string name;
  CouplingGraph graph;
  DurationMap durations;        ///< Kind-level duration defaults.
  FidelityMap fidelities;       ///< Kind-level fidelity defaults (ideal).
  CalibrationTable calibration; ///< Sparse heterogeneous overrides.
  Coherence coherence;          ///< T1/T2 in cycles (default: infinite).

  /// Duration of `kind` applied to the physical qubits `phys`, resolved
  /// against the calibration overlay:
  ///  - 1-qubit unitaries: per-qubit 1q override, else the kind default;
  ///  - measure: per-qubit readout override, else the kind default;
  ///  - 2-qubit gates: per-edge 2q override, else the kind default —
  ///    except SWAP, which resolves to 3x the edge override (three CX);
  ///  - everything else (barrier, CCX): the kind default.
  /// With an empty calibration this is exactly durations.of(kind).
  Duration duration(ir::GateKind kind, std::span<const Qubit> phys) const;
  Duration duration(const ir::Gate& g, std::span<const Qubit> phys) const {
    return duration(g.kind(), phys);
  }
  /// Kind-level duration, ignoring calibration (logical circuits, which
  /// have no physical placement yet).
  Duration duration(ir::GateKind kind) const { return durations.of(kind); }

  /// Fidelity of `kind` on `phys`, resolved like duration(): per-qubit 1q
  /// and readout overrides, per-edge 2q overrides, SWAP = edge override
  /// cubed. With an empty calibration this is exactly fidelities.of(kind).
  double fidelity(ir::GateKind kind, std::span<const Qubit> phys) const;
  double fidelity(const ir::Gate& g, std::span<const Qubit> phys) const {
    return fidelity(g.kind(), phys);
  }

  /// Content-addressed 64-bit fingerprint combining the coupling-graph,
  /// duration-map, fidelity-map and calibration fingerprints (schema v2).
  /// The display name is deliberately excluded, so two structurally
  /// identical devices fingerprint identically regardless of how they
  /// were built or labeled — and a recalibrated device can never alias
  /// its homogeneous twin in the serve route cache. Finite coherence
  /// times are folded in as a tagged extension (infinite-coherence
  /// devices keep their historical v2 value, and a finite-T2 device can
  /// never alias its ideal twin — coherence shapes reported ESP, so it
  /// must be cache-key relevant).
  std::uint64_t fingerprint() const;
};

/// IBM Q16 (2×8 lattice, 16 qubits, as in ibmqx5 Rüschlikon / the
/// "Q16 Melbourne" class of devices). Grid coordinates attached.
Device ibm_q16();

/// IBM Q20 Tokyo: 4×5 lattice plus the twelve diagonal couplers of the
/// published coupling map (as used by SABRE). Grid coordinates attached.
Device ibm_q20_tokyo();

/// Enfield 6×6: plain 36-qubit square lattice.
Device enfield_6x6();

/// Google Q54 Sycamore: 54-qubit diamond-shaped square lattice (degree <=4)
/// matching the Sycamore qubit arrangement. Grid coordinates attached.
Device google_sycamore54();

/// IBM Q5 bow-tie (Yorktown): 5 qubits, edges 0-1, 0-2, 1-2, 2-3, 2-4, 3-4.
/// Small device for unit tests. No lattice coordinates (not a grid).
Device ibm_q5_yorktown();

/// rows×cols square lattice with coordinates.
Device grid(int rows, int cols, DurationMap durations = DurationMap());

/// Path graph 0-1-...-n-1 with coordinates on one row.
Device linear(int n, DurationMap durations = DurationMap());

/// Cycle graph (linear plus wrap-around edge). No coordinates.
Device ring(int n, DurationMap durations = DurationMap());

}  // namespace codar::arch
