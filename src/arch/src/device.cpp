#include "codar/arch/device.hpp"

#include <map>

#include "codar/common/fnv.hpp"

namespace codar::arch {

Duration Device::duration(ir::GateKind kind,
                          std::span<const Qubit> phys) const {
  const Duration base = durations.of(kind);
  if (calibration.empty()) return base;
  const int arity = ir::gate_info(kind).num_qubits;
  if (arity == 1 && !phys.empty()) {
    if (kind == ir::GateKind::kMeasure) {
      if (const auto d = calibration.duration_readout(phys[0])) return *d;
    } else if (ir::is_unitary(kind)) {
      if (const auto d = calibration.duration_1q(phys[0])) return *d;
    }
  } else if (arity == 2 && phys.size() >= 2) {
    if (const auto d = calibration.duration_2q(phys[0], phys[1])) {
      // SWAP keeps the three-CX convention of the kind-level defaults.
      return kind == ir::GateKind::kSwap ? 3 * *d : *d;
    }
  }
  return base;
}

double Device::fidelity(ir::GateKind kind,
                        std::span<const Qubit> phys) const {
  const double base = fidelities.of(kind);
  if (calibration.empty()) return base;
  const int arity = ir::gate_info(kind).num_qubits;
  if (arity == 1 && !phys.empty()) {
    if (kind == ir::GateKind::kMeasure) {
      if (const auto f = calibration.fidelity_readout(phys[0])) return *f;
    } else if (ir::is_unitary(kind)) {
      if (const auto f = calibration.fidelity_1q(phys[0])) return *f;
    }
  } else if (arity == 2 && phys.size() >= 2) {
    if (const auto f = calibration.fidelity_2q(phys[0], phys[1])) {
      return kind == ir::GateKind::kSwap ? *f * *f * *f : *f;
    }
  }
  return base;
}

std::uint64_t Device::fingerprint() const {
  common::Fnv1a h;
  h.u64(2);  // fingerprint schema version (2: + fidelities + calibration)
  h.u64(graph.fingerprint());
  h.u64(durations.fingerprint());
  h.u64(fidelities.fingerprint());
  h.u64(calibration.fingerprint());
  // Coherence entered the model after schema v2 shipped; fold it only when
  // finite (behind an extension tag) so every pre-coherence device keeps
  // its pinned v2 value, while a finite-T1/T2 device can never alias its
  // ideal twin in the serve route cache.
  if (coherence.any_finite()) {
    h.u64(3);  // coherence extension tag
    h.f64(coherence.t1);
    h.f64(coherence.t2);
  }
  return h.value();
}

namespace {

/// Builds a rows×cols lattice: edges between horizontal and vertical
/// neighbours, coordinates (row, col) attached.
CouplingGraph make_grid_graph(int rows, int cols) {
  CODAR_EXPECTS(rows > 0 && cols > 0);
  CouplingGraph g(rows * cols);
  std::vector<Coordinate> coords;
  coords.reserve(static_cast<std::size_t>(rows * cols));
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < cols; ++c) {
      const Qubit q = r * cols + c;
      if (c + 1 < cols) g.add_edge(q, q + 1);
      if (r + 1 < rows) g.add_edge(q, q + cols);
      coords.push_back(Coordinate{r, c});
    }
  }
  g.set_coordinates(std::move(coords));
  return g;
}

}  // namespace

Device ibm_q16() {
  return Device{"IBM Q16", make_grid_graph(2, 8),
                DurationMap::superconducting()};
}

Device ibm_q20_tokyo() {
  CouplingGraph g(20);
  std::vector<Coordinate> coords;
  coords.reserve(20);
  for (int r = 0; r < 4; ++r) {
    for (int c = 0; c < 5; ++c) {
      const Qubit q = r * 5 + c;
      if (c + 1 < 5) g.add_edge(q, q + 1);
      if (r + 1 < 4) g.add_edge(q, q + 5);
      coords.push_back(Coordinate{r, c});
    }
  }
  // The published Tokyo map adds diagonal couplers inside alternating
  // lattice squares (the "X" cells in the SABRE paper's figure).
  const std::pair<Qubit, Qubit> diagonals[] = {
      {1, 7},  {2, 6},  {3, 9},  {4, 8},  {5, 11},  {6, 10},
      {7, 13}, {8, 12}, {11, 17}, {12, 16}, {13, 19}, {14, 18}};
  for (const auto& [a, b] : diagonals) g.add_edge(a, b);
  g.set_coordinates(std::move(coords));
  return Device{"IBM Q20 Tokyo", std::move(g),
                DurationMap::superconducting()};
}

Device enfield_6x6() {
  return Device{"Enfield 6x6", make_grid_graph(6, 6),
                DurationMap::superconducting()};
}

Device google_sycamore54() {
  // Diamond-shaped subset of the square lattice matching the Sycamore
  // qubit arrangement: per-row column ranges, grid adjacency.
  const std::pair<int, int> row_span[] = {
      {5, 6}, {4, 7}, {3, 8}, {2, 9}, {1, 9}, {0, 8}, {1, 7}, {2, 6},
      {3, 5}, {4, 4}};
  std::map<std::pair<int, int>, Qubit> index_of;
  std::vector<Coordinate> coords;
  Qubit next = 0;
  for (int r = 0; r < 10; ++r) {
    for (int c = row_span[r].first; c <= row_span[r].second; ++c) {
      index_of[{r, c}] = next++;
      coords.push_back(Coordinate{r, c});
    }
  }
  CODAR_ENSURES(next == 54);
  CouplingGraph g(54);
  for (const auto& [rc, q] : index_of) {
    const auto right = index_of.find({rc.first, rc.second + 1});
    if (right != index_of.end()) g.add_edge(q, right->second);
    const auto down = index_of.find({rc.first + 1, rc.second});
    if (down != index_of.end()) g.add_edge(q, down->second);
  }
  g.set_coordinates(std::move(coords));
  return Device{"Google Q54 Sycamore", std::move(g),
                DurationMap::superconducting()};
}

Device ibm_q5_yorktown() {
  CouplingGraph g(5);
  g.add_edge(0, 1);
  g.add_edge(0, 2);
  g.add_edge(1, 2);
  g.add_edge(2, 3);
  g.add_edge(2, 4);
  g.add_edge(3, 4);
  return Device{"IBM Q5 Yorktown", std::move(g),
                DurationMap::superconducting()};
}

Device grid(int rows, int cols, DurationMap durations) {
  return Device{"grid " + std::to_string(rows) + "x" + std::to_string(cols),
                make_grid_graph(rows, cols), durations};
}

Device linear(int n, DurationMap durations) {
  CODAR_EXPECTS(n > 0);
  CouplingGraph g(n);
  std::vector<Coordinate> coords;
  for (Qubit q = 0; q < n; ++q) {
    if (q + 1 < n) g.add_edge(q, q + 1);
    coords.push_back(Coordinate{0, q});
  }
  g.set_coordinates(std::move(coords));
  return Device{"linear " + std::to_string(n), std::move(g), durations};
}

Device ring(int n, DurationMap durations) {
  CODAR_EXPECTS(n >= 3);
  CouplingGraph g(n);
  for (Qubit q = 0; q < n; ++q) g.add_edge(q, (q + 1) % n);
  return Device{"ring " + std::to_string(n), std::move(g), durations};
}

}  // namespace codar::arch
