#pragma once

// The maQAM static structure M = (Q_H, E_H): an undirected coupling graph
// over physical qubits, with the shortest-path map D the paper's heuristic
// needs, plus optional 2-D lattice coordinates that enable the fine
// priority H_fine.
//
// Distance queries are answered by a pluggable DistanceOracle (see
// distance_oracle.hpp): a dense all-pairs matrix for small devices and an
// on-demand CSR/BFS backend with an LRU row cache for large ones, chosen
// by device size. Both return identical values; only memory and latency
// differ.

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "codar/common/thread_annotations.hpp"
#include "codar/ir/gate.hpp"

namespace codar::arch {

using ir::Qubit;

class DistanceOracle;

/// How distance queries are resolved (see distance_oracle.hpp for the
/// backends). Graphs default to kAuto; the other two force a backend.
enum class DistancePolicy {
  kAuto,      ///< Dense up to kDenseOracleMaxQubits qubits, on-demand above.
  kDense,     ///< Force the all-pairs matrix (O(V^2) memory).
  kOnDemand,  ///< Force CSR + LRU-cached per-source BFS rows.
};

/// Distance value for disconnected qubit pairs. Large but safely summable
/// (the basic heuristic adds distances over the whole CF set — with a
/// saturating add guarding the accumulator, see core::saturating_add).
inline constexpr int kInfDistance = 1 << 28;

/// Row/column position of a qubit on a 2-D lattice device.
struct Coordinate {
  int row = 0;
  int col = 0;
};

/// Undirected coupling graph with oracle-backed shortest-path distances.
class CouplingGraph {
 public:
  explicit CouplingGraph(int num_qubits);
  ~CouplingGraph();

  // Copies share an already-built oracle (copies of an unmutated graph
  // are structurally identical, and oracles own an immutable snapshot of
  // the adjacency) — so routers that copy a prepared Device per circuit
  // never rebuild the distance backend. Mutating either side afterwards
  // detaches it by resetting its oracle.
  CouplingGraph(const CouplingGraph& other);
  CouplingGraph& operator=(const CouplingGraph& other);
  CouplingGraph(CouplingGraph&&) noexcept;
  CouplingGraph& operator=(CouplingGraph&&) noexcept;

  int num_qubits() const { return num_qubits_; }
  std::size_t num_edges() const { return edges_.size(); }

  /// Adds an undirected edge; duplicate and self edges are rejected.
  void add_edge(Qubit a, Qubit b);

  /// True when a two-qubit gate may be applied across (a, b).
  bool connected(Qubit a, Qubit b) const;

  const std::vector<Qubit>& neighbors(Qubit q) const;
  const std::vector<std::pair<Qubit, Qubit>>& edges() const { return edges_; }

  /// Edge indices (into edges()) parallel to neighbors(q): the k-th entry
  /// is the index of the edge {q, neighbors(q)[k]}. Lets hot loops key
  /// per-edge scratch by a compact O(E) id instead of an O(V^2) pair key.
  std::span<const int> incident_edge_ids(Qubit q) const;

  /// Shortest-path hop count between a and b; kInfDistance if unreachable.
  /// Resolved through oracle() — prefer caching oracle() in loops.
  int distance(Qubit a, Qubit b) const;

  /// The distance backend for this graph, built on first use according to
  /// the distance policy. Hot consumers cache this reference and query it
  /// directly. Invalidated by add_edge()/set_distance_policy().
  ///
  /// Thread-safe: concurrent first calls race benignly on one build mutex
  /// (one thread builds, the rest wait and reuse), and every later call is
  /// a single atomic load. Mutation is still exclusive-access only.
  const DistanceOracle& oracle() const;

  /// Builds the oracle (and any eager tables) now, so concurrent readers
  /// later never even touch the build path. Safe to call repeatedly (a
  /// no-op once built) and safe to race — prepare() is just oracle() for
  /// its side effect.
  void prepare() const;

  /// Steady-state memory bound of the distance backend in bytes (builds
  /// the oracle if needed). Dense: the V^2 matrix; on-demand: CSR +
  /// row-cache budget. The serve inline-device memo accounts with this.
  std::size_t distance_footprint_bytes() const;

  /// Per-graph backend choice; kAuto (the default) picks by size, and
  /// the tests force a backend with the other two. Resets an already-built
  /// oracle.
  void set_distance_policy(DistancePolicy policy);
  DistancePolicy distance_policy() const { return policy_; }

  /// True when every qubit can reach every other qubit.
  bool is_fully_connected() const;

  /// Lattice coordinates (used by H_fine). A graph either has coordinates
  /// for all qubits or none.
  void set_coordinates(std::vector<Coordinate> coords);
  bool has_coordinates() const { return !coords_.empty(); }
  Coordinate coordinate(Qubit q) const;

  /// Content-addressed 64-bit fingerprint over qubit count, the edge set
  /// (endpoint-normalized and sorted, so add_edge order is irrelevant) and
  /// coordinates. Deterministic across runs — no pointers or hash-table
  /// iteration order involved. The distance policy is deliberately
  /// excluded: it changes how distances are computed, never their values.
  std::uint64_t fingerprint() const;

 private:
  void check_qubit(Qubit q) const;
  const DistanceOracle& build_oracle() const CODAR_EXCLUDES(oracle_mutex_);
  /// Drops the built oracle (mutation invalidates it).
  void reset_oracle() CODAR_EXCLUDES(oracle_mutex_);

  int num_qubits_;
  std::vector<std::vector<Qubit>> adjacency_;
  std::vector<std::vector<int>> adjacency_edge_ids_;
  std::vector<std::pair<Qubit, Qubit>> edges_;
  std::vector<Coordinate> coords_;
  DistancePolicy policy_ = DistancePolicy::kAuto;
  // Lazily built distance backend, invalidated by mutation and shared
  // across copies. The lazy build is race-free: the first reader builds
  // under oracle_mutex_ and publishes the raw pointer through
  // oracle_published_ (release); every subsequent oracle() call is one
  // acquire load, never the lock. Mutation (add_edge, set_distance_policy,
  // assignment) still requires exclusive access to the graph — it
  // invalidates adjacency readers regardless of the oracle.
  mutable common::Mutex oracle_mutex_;
  mutable std::shared_ptr<const DistanceOracle> oracle_
      CODAR_GUARDED_BY(oracle_mutex_);
  mutable std::atomic<const DistanceOracle*> oracle_published_{nullptr};
};

}  // namespace codar::arch
