#pragma once

// The pluggable distance layer behind CouplingGraph::distance(): a
// polymorphic DistanceOracle answering shortest-path hop queries, with two
// registered backends selected automatically by device size.
//
//  - DenseDistanceOracle: the classic all-pairs BFS matrix. O(V^2) ints of
//    memory, O(1) lock-free lookups — unbeatable for the paper-scale
//    devices (<= kDenseOracleMaxQubits), and byte-identical to the
//    pre-oracle behavior.
//  - OnDemandDistanceOracle: CSR adjacency plus per-source BFS rows
//    computed on demand and kept in a byte-budgeted LRU cache. Memory is
//    O(E + cache budget), which is what lifts the JSON device cap from
//    4096 to 65536 qubits and makes grid-50x50 (2500 qubits, 25 MB dense)
//    a routable device.
//
// Both backends return identical distances (BFS hop counts are unique), so
// the choice is purely a memory/latency trade: routing results never
// depend on the backend, which is chosen by device size alone (kAuto).
// Oracles own their data (a CSR copy of the adjacency), so a CouplingGraph
// can be moved without invalidating an already-built oracle.
//
// Thread-safety: every backend is safe for concurrent readers — the dense
// matrix is immutable, and the on-demand row cache serializes internally
// on an annotated mutex (clang's -Wthread-safety checks the discipline).
// CouplingGraph's lazy build is itself race-free; prepare() remains the
// polite way to pay the build cost before fan-out rather than under it.

#include <cstdint>
#include <memory>
#include <vector>

#include "codar/arch/coupling_graph.hpp"
#include "codar/common/thread_annotations.hpp"

namespace codar::arch {

/// Largest device the kAuto policy serves from the dense matrix. 1024
/// qubits = 4 MiB of matrix; every paper architecture is far below this,
/// so default routing behavior (and the pinned BENCH_paper.json) is
/// byte-identical to the pre-oracle dense implementation.
inline constexpr int kDenseOracleMaxQubits = 1024;

/// Polymorphic shortest-path oracle over one coupling graph snapshot.
class DistanceOracle {
 public:
  virtual ~DistanceOracle() = default;

  /// Exact shortest-path hop count; kInfDistance if unreachable.
  virtual int distance(Qubit a, Qubit b) const = 0;

  /// Backend name for diagnostics ("dense", "on-demand").
  virtual const char* name() const = 0;

  /// Steady-state memory bound in bytes: what this oracle can grow to
  /// (dense: the full matrix; on-demand: CSR + row-cache budget). The
  /// serve inline-device memo accounts with this.
  virtual std::size_t footprint_bytes() const = 0;

  /// Non-null when every distance lives in one flat row-major V x V array
  /// (the dense backend): hot loops branch on this once and index the
  /// matrix directly, skipping the virtual dispatch per lookup. Non-dense
  /// backends leave it null. Non-virtual on purpose — the check itself
  /// must cost nothing.
  const int* dense_matrix() const { return dense_data_; }
  std::size_t dense_stride() const { return dense_stride_; }

 protected:
  const int* dense_data_ = nullptr;
  std::size_t dense_stride_ = 0;
};

/// All-pairs BFS matrix, computed eagerly at construction.
class DenseDistanceOracle final : public DistanceOracle {
 public:
  explicit DenseDistanceOracle(const CouplingGraph& graph);

  int distance(Qubit a, Qubit b) const override {
    return dist_[static_cast<std::size_t>(a) * n_ + static_cast<std::size_t>(b)];
  }
  const char* name() const override { return "dense"; }
  std::size_t footprint_bytes() const override {
    return dist_.capacity() * sizeof(int);
  }

 private:
  std::size_t n_;
  std::vector<int> dist_;
};

/// CSR adjacency + on-demand per-source BFS rows in a byte-budgeted LRU.
class OnDemandDistanceOracle final : public DistanceOracle {
 public:
  struct Config {
    /// Byte budget for cached BFS rows (one row = V ints). At least one
    /// row is always kept so progress is guaranteed.
    std::size_t row_cache_bytes = 64u << 20;
  };

  explicit OnDemandDistanceOracle(const CouplingGraph& graph);
  OnDemandDistanceOracle(const CouplingGraph& graph, Config config);

  int distance(Qubit a, Qubit b) const override;
  const char* name() const override { return "on-demand"; }
  std::size_t footprint_bytes() const override;

  /// Observability for tests and diagnostics.
  std::size_t rows_cached() const;
  std::uint64_t row_computations() const;

 private:
  /// One cached BFS row plus its LRU links (indices into rows_).
  struct Row {
    Qubit source = -1;
    std::vector<int> dist;
    int prev = -1;
    int next = -1;
  };

  /// Returns the cached row for `source`, computing and possibly evicting
  /// under lock_.
  const std::vector<int>& row_for(Qubit source) const CODAR_REQUIRES(lock_);
  void detach(int slot) const CODAR_REQUIRES(lock_);
  void push_front(int slot) const CODAR_REQUIRES(lock_);

  std::size_t n_ = 0;
  std::vector<std::int32_t> csr_offsets_;  ///< V+1 prefix offsets.
  std::vector<Qubit> csr_neighbors_;       ///< Concatenated adjacency.
  std::size_t max_rows_ = 1;               ///< Row-cache capacity.

  /// Serializes the mutable row-LRU below: `distance()` on a shared oracle
  /// (graph copies share one) is called from every routing worker at once.
  mutable common::Mutex lock_;
  mutable std::vector<Row> rows_ CODAR_GUARDED_BY(lock_);  ///< Slot storage.
  /// V-sized source → slot map, -1 = absent.
  mutable std::vector<int> slot_of_source_ CODAR_GUARDED_BY(lock_);
  mutable int lru_head_ CODAR_GUARDED_BY(lock_) = -1;  ///< Most recent.
  mutable int lru_tail_ CODAR_GUARDED_BY(lock_) = -1;  ///< Eviction victim.
  mutable std::uint64_t row_computations_ CODAR_GUARDED_BY(lock_) = 0;
};

/// Builds the backend `policy` resolves to for a graph of this size
/// (kAuto applies the size threshold). The oracle copies what it needs —
/// it does not retain a reference to `graph`.
std::unique_ptr<DistanceOracle> make_distance_oracle(
    const CouplingGraph& graph, DistancePolicy policy);

}  // namespace codar::arch
