#include "codar/arch/distance_oracle.hpp"

#include <gtest/gtest.h>

#include <random>
#include <vector>

#include "codar/arch/device.hpp"

namespace codar::arch {
namespace {

/// Random connected graph: a random spanning tree plus `extra_edges`
/// random chords. Deterministic for a fixed seed.
CouplingGraph random_connected(int n, int extra_edges, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  CouplingGraph g(n);
  for (int v = 1; v < n; ++v) {
    const int u = static_cast<int>(rng() % static_cast<std::uint64_t>(v));
    g.add_edge(u, v);
  }
  int added = 0;
  while (added < extra_edges) {
    const int a = static_cast<int>(rng() % static_cast<std::uint64_t>(n));
    const int b = static_cast<int>(rng() % static_cast<std::uint64_t>(n));
    if (a == b || g.connected(a, b)) continue;
    g.add_edge(a, b);
    ++added;
  }
  return g;
}

/// Two random connected components with no edges between them.
CouplingGraph random_disconnected(int n_left, int n_right,
                                  std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  CouplingGraph g(n_left + n_right);
  for (int v = 1; v < n_left; ++v) {
    g.add_edge(static_cast<int>(rng() % static_cast<std::uint64_t>(v)), v);
  }
  for (int v = 1; v < n_right; ++v) {
    const int u = static_cast<int>(rng() % static_cast<std::uint64_t>(v));
    g.add_edge(n_left + u, n_left + v);
  }
  return g;
}

void expect_all_pairs_equal(const CouplingGraph& g,
                            const DistanceOracle& reference,
                            const DistanceOracle& candidate) {
  const int n = g.num_qubits();
  for (Qubit a = 0; a < n; ++a) {
    for (Qubit b = 0; b < n; ++b) {
      ASSERT_EQ(reference.distance(a, b), candidate.distance(a, b))
          << candidate.name() << " diverges at (" << a << ", " << b << ")";
    }
  }
}

TEST(DistanceOracle, DenseAndOnDemandAgreeOnRandomConnectedGraphs) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const CouplingGraph g = random_connected(60, 40, seed);
    const DenseDistanceOracle dense(g);
    const OnDemandDistanceOracle on_demand(g);
    expect_all_pairs_equal(g, dense, on_demand);
  }
}

TEST(DistanceOracle, DenseAndOnDemandAgreeOnDisconnectedGraphs) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const CouplingGraph g = random_disconnected(25, 15, seed);
    const DenseDistanceOracle dense(g);
    const OnDemandDistanceOracle on_demand(g);
    expect_all_pairs_equal(g, dense, on_demand);
    // Cross-component pairs really are infinite, both ways.
    EXPECT_EQ(dense.distance(0, 39), kInfDistance);
    EXPECT_EQ(on_demand.distance(39, 0), kInfDistance);
  }
}

TEST(DistanceOracle, LruCacheEvictsUnderTinyBudget) {
  const CouplingGraph g = random_connected(32, 10, 17);
  OnDemandDistanceOracle::Config config;
  // Budget for exactly two rows of 32 ints.
  config.row_cache_bytes = 2 * 32 * sizeof(int);
  const OnDemandDistanceOracle oracle(g, config);

  (void)oracle.distance(0, 1);  // row 0 computed
  (void)oracle.distance(1, 2);  // row 1 computed
  EXPECT_EQ(oracle.rows_cached(), 2u);
  EXPECT_EQ(oracle.row_computations(), 2u);

  (void)oracle.distance(0, 5);  // hit: row 0 still cached
  EXPECT_EQ(oracle.row_computations(), 2u);

  (void)oracle.distance(2, 3);  // evicts LRU victim (row 1)
  EXPECT_EQ(oracle.rows_cached(), 2u);
  EXPECT_EQ(oracle.row_computations(), 3u);

  (void)oracle.distance(1, 4);  // row 1 must be recomputed
  EXPECT_EQ(oracle.row_computations(), 4u);
  EXPECT_EQ(oracle.rows_cached(), 2u);
}

TEST(DistanceOracle, AtLeastOneRowEvenUnderZeroBudget) {
  const CouplingGraph g = random_connected(16, 5, 19);
  OnDemandDistanceOracle::Config config;
  config.row_cache_bytes = 0;
  const OnDemandDistanceOracle oracle(g, config);
  const DenseDistanceOracle dense(g);
  expect_all_pairs_equal(g, dense, oracle);
  EXPECT_EQ(oracle.rows_cached(), 1u);
}

TEST(DistanceOracle, SymmetricQueriesShareOneRow) {
  const CouplingGraph g = random_connected(20, 8, 23);
  const OnDemandDistanceOracle oracle(g);
  // (a, b) and (b, a) normalize to the same BFS source, so the reverse
  // query is a cache hit.
  EXPECT_EQ(oracle.distance(3, 14), oracle.distance(14, 3));
  EXPECT_EQ(oracle.row_computations(), 1u);
}

TEST(DistanceOracle, DenseExposesFlatMatrixAndOnDemandDoesNot) {
  const CouplingGraph g = random_connected(24, 10, 29);
  const DenseDistanceOracle dense(g);
  const OnDemandDistanceOracle on_demand(g);

  ASSERT_NE(dense.dense_matrix(), nullptr);
  EXPECT_EQ(dense.dense_stride(), 24u);
  const int* m = dense.dense_matrix();
  for (Qubit a = 0; a < g.num_qubits(); ++a) {
    for (Qubit b = 0; b < g.num_qubits(); ++b) {
      EXPECT_EQ(m[static_cast<std::size_t>(a) * 24 + b], dense.distance(a, b));
    }
  }
  EXPECT_EQ(on_demand.dense_matrix(), nullptr);
}

TEST(DistanceOracle, FootprintsReflectTheBackend) {
  const CouplingGraph g = random_connected(100, 60, 31);
  const DenseDistanceOracle dense(g);
  EXPECT_GE(dense.footprint_bytes(), 100u * 100u * sizeof(int));

  // A budget of 40 rows (of 100 ints each): the steady-state bound covers
  // CSR plus those rows, and stays below the 100x100 dense matrix.
  OnDemandDistanceOracle::Config config;
  config.row_cache_bytes = 40u * 100u * sizeof(int);
  const OnDemandDistanceOracle on_demand(g, config);
  EXPECT_GE(on_demand.footprint_bytes(), 40u * 100u * sizeof(int));
  EXPECT_LT(on_demand.footprint_bytes(), dense.footprint_bytes());
}

TEST(DistanceOracle, MakeOracleResolvesPolicies) {
  const CouplingGraph small = random_connected(10, 4, 37);
  EXPECT_STREQ(
      make_distance_oracle(small, DistancePolicy::kDense)->name(), "dense");
  EXPECT_STREQ(make_distance_oracle(small, DistancePolicy::kOnDemand)->name(),
               "on-demand");
  // kAuto: dense below the threshold...
  EXPECT_STREQ(
      make_distance_oracle(small, DistancePolicy::kAuto)->name(), "dense");
  // ...on-demand above it.
  CouplingGraph big(kDenseOracleMaxQubits + 1);
  for (int v = 1; v < big.num_qubits(); ++v) big.add_edge(v - 1, v);
  EXPECT_STREQ(
      make_distance_oracle(big, DistancePolicy::kAuto)->name(), "on-demand");
}

TEST(CouplingGraphOracle, PrepareIsIdempotentAndPinsTheBackend) {
  const CouplingGraph g = random_connected(12, 6, 43);
  g.prepare();
  const DistanceOracle* built = &g.oracle();
  g.prepare();
  EXPECT_EQ(&g.oracle(), built);
  EXPECT_GT(g.distance_footprint_bytes(), 0u);
}

TEST(CouplingGraphOracle, CopiesShareThePreparedOracle) {
  const CouplingGraph g = random_connected(12, 6, 47);
  g.prepare();
  const CouplingGraph copy(g);
  EXPECT_EQ(&copy.oracle(), &g.oracle());
  EXPECT_EQ(copy.distance(0, 11), g.distance(0, 11));
}

TEST(CouplingGraphOracle, MutationDetachesTheOracle) {
  CouplingGraph g(4);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  EXPECT_EQ(g.distance(0, 3), kInfDistance);
  g.add_edge(2, 3);  // resets the already-built oracle
  EXPECT_EQ(g.distance(0, 3), 3);
}

TEST(CouplingGraphOracle, PerGraphPolicySelectsTheBackend) {
  CouplingGraph g = random_connected(12, 6, 53);
  const int reference = g.distance(0, 11);

  g.set_distance_policy(DistancePolicy::kOnDemand);
  EXPECT_STREQ(g.oracle().name(), "on-demand");
  EXPECT_EQ(g.distance(0, 11), reference);

  g.set_distance_policy(DistancePolicy::kDense);
  EXPECT_STREQ(g.oracle().name(), "dense");
  EXPECT_EQ(g.distance(0, 11), reference);
}

TEST(CouplingGraphOracle, Grid50x50RoutesThroughOnDemandUnderAuto) {
  const Device dev = grid(50, 50);
  EXPECT_EQ(dev.graph.num_qubits(), 2500);
  dev.graph.prepare();
  EXPECT_STREQ(dev.graph.oracle().name(), "on-demand");
  // Manhattan distance on the lattice: corner to corner is 49 + 49.
  EXPECT_EQ(dev.graph.distance(0, 2499), 98);
  // The footprint stays far below the 25 MB dense matrix would need...
  // unless the row-cache budget dominates; either way it must be bounded.
  EXPECT_GT(dev.graph.distance_footprint_bytes(), 0u);
}

TEST(CouplingGraphOracle, IncidentEdgeIdsMatchNeighbors) {
  const CouplingGraph g = random_connected(20, 12, 59);
  for (Qubit q = 0; q < g.num_qubits(); ++q) {
    const auto& neighbors = g.neighbors(q);
    const auto ids = g.incident_edge_ids(q);
    ASSERT_EQ(ids.size(), neighbors.size());
    for (std::size_t k = 0; k < ids.size(); ++k) {
      const auto& edge = g.edges()[static_cast<std::size_t>(ids[k])];
      const bool matches = (edge.first == q && edge.second == neighbors[k]) ||
                           (edge.second == q && edge.first == neighbors[k]);
      EXPECT_TRUE(matches) << "edge id " << ids[k] << " at qubit " << q;
    }
  }
}

}  // namespace
}  // namespace codar::arch
