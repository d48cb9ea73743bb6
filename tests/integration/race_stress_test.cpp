// Race-stress suite: hammers every concurrency surface the serve path is
// built on, so the TSan lane (-DCODAR_SANITIZE=thread) has real contention
// to bite into — and the normal lanes get the same coverage as plain
// functional tests. Each test encodes an invariant, not a timing:
//
//  - RouteCache single-flight: a storm of identical requests routes once;
//    counters stay exact under eviction churn; no cross-key bleed.
//  - CouplingGraph's lazy oracle build: N threads hitting an unbuilt
//    shared graph build exactly one oracle and read identical distances.
//  - The shared on-demand oracle row-LRU: graph copies share one oracle;
//    concurrent queries through every copy (with eviction churn forced by
//    a tiny row budget) stay byte-identical to the dense backend.
//  - codar serve end to end: worker storms over identical + distinct
//    requests (single-flight + cache), and concurrent inline-device
//    requests exercising the fingerprint-keyed device memo.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <functional>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "codar/arch/device.hpp"
#include "codar/arch/device_json.hpp"
#include "codar/arch/distance_oracle.hpp"
#include "codar/common/json.hpp"
#include "codar/service/route_cache.hpp"
#include "codar/service/server.hpp"
#include "codar/workloads/suite.hpp"

namespace codar {
namespace {

/// Runs `fn(thread_index)` on `threads` threads, released together to
/// maximize interleaving, and joins them all.
void run_threads(int threads, const std::function<void(int)>& fn) {
  std::atomic<bool> go{false};
  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(threads));
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      fn(t);
    });
  }
  go.store(true, std::memory_order_release);
  for (std::thread& t : pool) t.join();
}

// ---------------------------------------------------------------------------
// RouteCache

service::CacheKey key_for(std::uint64_t i) {
  return service::CacheKey{i, 7, 13};
}

pipeline::RouteReport report_for(std::uint64_t i) {
  pipeline::RouteReport report;
  report.name = "key_" + std::to_string(i);
  return report;
}

TEST(RaceStress, RouteCacheSingleFlightStormRoutesEachKeyOnce) {
  service::RouteCache cache(/*byte_budget=*/64u << 20, /*num_shards=*/4);
  constexpr int kThreads = 8;
  constexpr int kIterations = 25;
  constexpr std::uint64_t kKeys = 5;
  std::atomic<std::uint64_t> routes{0};

  run_threads(kThreads, [&](int t) {
    for (int i = 0; i < kIterations; ++i) {
      // Every thread sweeps the same small key set, so each key sees
      // concurrent identical requests (the single-flight case) on every
      // sweep. The slow route widens the in-flight window.
      const std::uint64_t k =
          static_cast<std::uint64_t>((i + t) % static_cast<int>(kKeys));
      bool hit = false;
      const pipeline::RouteReport report = cache.get_or_route(
          key_for(k),
          [&] {
            ++routes;
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
            return report_for(k);
          },
          &hit);
      // No cross-key bleed: the report always matches the requested key.
      EXPECT_EQ(report.name, "key_" + std::to_string(k));
    }
  });

  // Memoization + single-flight: each key routed exactly once across all
  // threads and iterations.
  EXPECT_EQ(routes.load(), kKeys);
  const service::CacheCounters counters = cache.counters();
  EXPECT_EQ(counters.misses, kKeys);
  EXPECT_EQ(counters.hits() + counters.misses,
            static_cast<std::size_t>(kThreads) * kIterations);
  EXPECT_EQ(counters.entries, kKeys);
  EXPECT_EQ(counters.evictions, 0u);
}

TEST(RaceStress, RouteCacheStaysConsistentUnderEvictionChurn) {
  // A budget small enough that the working set cannot be resident forces
  // constant insert/evict traffic on every shard.
  const std::size_t entry_bytes =
      service::RouteCache::report_bytes(report_for(0));
  service::RouteCache cache(entry_bytes * 6, /*num_shards=*/2);
  constexpr int kThreads = 8;
  constexpr int kIterations = 40;
  constexpr std::uint64_t kKeys = 32;

  run_threads(kThreads, [&](int t) {
    for (int i = 0; i < kIterations; ++i) {
      const std::uint64_t k =
          static_cast<std::uint64_t>((i * 7 + t * 13) %
                                     static_cast<int>(kKeys));
      const pipeline::RouteReport report =
          cache.get_or_route(key_for(k), [&] { return report_for(k); });
      EXPECT_EQ(report.name, "key_" + std::to_string(k));
    }
  });

  const service::CacheCounters counters = cache.counters();
  EXPECT_EQ(counters.hits() + counters.misses,
            static_cast<std::size_t>(kThreads) * kIterations);
  EXPECT_GT(counters.evictions, 0u);
  EXPECT_LE(counters.bytes, cache.byte_budget());
}

// ---------------------------------------------------------------------------
// Lazy oracle build + shared row-LRU

/// Dense reference distances for a device graph (its own prepared copy).
std::vector<int> dense_reference(const arch::CouplingGraph& graph) {
  arch::CouplingGraph reference = graph;
  reference.set_distance_policy(arch::DistancePolicy::kDense);
  const int n = reference.num_qubits();
  std::vector<int> dist(static_cast<std::size_t>(n) *
                        static_cast<std::size_t>(n));
  for (int a = 0; a < n; ++a) {
    for (int b = 0; b < n; ++b) {
      dist[static_cast<std::size_t>(a) * static_cast<std::size_t>(n) +
           static_cast<std::size_t>(b)] = reference.distance(a, b);
    }
  }
  return dist;
}

TEST(RaceStress, LazyOracleBuildRacesToOneOracle) {
  // The graph is shared *unprepared*: every thread's first distance()
  // races into the lazy build. Exactly one oracle must win, and every
  // thread must read BFS-exact distances through it.
  arch::CouplingGraph graph = arch::grid(8, 8).graph;
  graph.set_distance_policy(arch::DistancePolicy::kOnDemand);
  const std::vector<int> expected = dense_reference(graph);
  const int n = graph.num_qubits();

  std::atomic<const arch::DistanceOracle*> winner{nullptr};
  run_threads(8, [&](int t) {
    for (int i = 0; i < 2 * n; ++i) {
      const int a = (i * 5 + t * 11) % n;
      const int b = (i * 3 + t * 17) % n;
      ASSERT_EQ(graph.distance(a, b),
                expected[static_cast<std::size_t>(a) *
                             static_cast<std::size_t>(n) +
                         static_cast<std::size_t>(b)])
          << a << "," << b;
    }
    // Every thread resolved to the same built oracle instance.
    const arch::DistanceOracle* mine = &graph.oracle();
    const arch::DistanceOracle* expected_oracle = nullptr;
    if (!winner.compare_exchange_strong(expected_oracle, mine)) {
      EXPECT_EQ(mine, expected_oracle);
    }
  });
}

TEST(RaceStress, SharedRowLruServesGraphCopiesUnderEvictionChurn) {
  // Copies of a prepared graph share one on-demand oracle; a row budget of
  // a few rows forces the LRU to evict on nearly every query. Distances
  // must still be byte-identical to the dense backend from every copy.
  const arch::CouplingGraph base = arch::grid(9, 9).graph;
  const std::vector<int> expected = dense_reference(base);
  const int n = base.num_qubits();

  const arch::OnDemandDistanceOracle::Config config{
      /*row_cache_bytes=*/4 * static_cast<std::size_t>(n) * sizeof(int)};
  const arch::OnDemandDistanceOracle oracle(base, config);

  run_threads(8, [&](int t) {
    for (int i = 0; i < 3 * n; ++i) {
      const int a = (i * 29 + t * 31) % n;
      const int b = (i * 13 + t * 7) % n;
      const int exact =
          expected[static_cast<std::size_t>(a) * static_cast<std::size_t>(n) +
                   static_cast<std::size_t>(b)];
      ASSERT_EQ(oracle.distance(a, b), exact) << a << "," << b;
    }
  });

  EXPECT_LE(oracle.rows_cached(), 4u);
  // Eviction churn actually happened: far more BFS runs than cache slots.
  EXPECT_GT(oracle.row_computations(), 4u);

  // And through CouplingGraph copies sharing one lazily built oracle.
  arch::CouplingGraph shared = base;
  shared.set_distance_policy(arch::DistancePolicy::kOnDemand);
  shared.prepare();
  run_threads(4, [&](int t) {
    const arch::CouplingGraph copy = shared;  // copies share the oracle
    EXPECT_EQ(&copy.oracle(), &shared.oracle());
    for (int i = 0; i < n; ++i) {
      const int a = (i * 23 + t * 41) % n;
      const int b = (i * 19 + t * 3) % n;
      ASSERT_EQ(copy.distance(a, b),
                expected[static_cast<std::size_t>(a) *
                             static_cast<std::size_t>(n) +
                         static_cast<std::size_t>(b)]);
    }
  });
}

// ---------------------------------------------------------------------------
// codar serve

/// Feeds `lines` to run_serve and returns the response lines.
std::vector<std::string> serve(const service::ServeOptions& opts,
                               const std::vector<std::string>& lines) {
  std::string input;
  for (const std::string& line : lines) input += line + "\n";
  std::istringstream in(input);
  std::ostringstream out;
  std::ostringstream err;
  EXPECT_EQ(run_serve(opts, in, out, err), 0) << err.str();

  std::vector<std::string> responses;
  std::istringstream splitter(out.str());
  std::string line;
  while (std::getline(splitter, line)) responses.push_back(line);
  return responses;
}

TEST(RaceStress, ServeSingleFlightStormOverWorkerPool) {
  // A worker pool racing over a storm of identical + distinct requests:
  // the cache + single-flight must collapse all duplicates to one route
  // per distinct circuit, with zero errors and one response per request.
  service::ServeOptions opts;
  opts.defaults.device = "q16";
  opts.defaults.threads = 8;

  const std::vector<std::string> names = {"ghz_3", "qft_4", "bv_6"};
  std::vector<std::string> lines;
  constexpr int kWaves = 20;
  for (int wave = 0; wave < kWaves; ++wave) {
    for (std::size_t c = 0; c < names.size(); ++c) {
      lines.push_back(
          "{\"id\": " +
          std::to_string(wave * static_cast<int>(names.size()) +
                         static_cast<int>(c)) +
          ", \"suite_name\": " + common::json_quote(names[c]) + "}");
    }
  }
  lines.push_back(R"({"id": "stats", "cmd": "stats"})");

  const std::vector<std::string> responses = serve(opts, lines);
  ASSERT_EQ(responses.size(), lines.size());

  std::string stats_line;
  std::set<std::string> seen_ids;
  for (const std::string& line : responses) {
    const common::Json doc = common::Json::parse(line);
    const common::Json* id = doc.find("id");
    ASSERT_NE(id, nullptr) << line;
    if (id->is_string()) {
      stats_line = line;
      continue;
    }
    // Every route response is a success envelope with a result object.
    EXPECT_TRUE(seen_ids.insert(id->raw_number()).second) << line;
    EXPECT_NE(doc.find("result"), nullptr) << line;
    EXPECT_EQ(line.find("\"error\": "), std::string::npos) << line;
  }
  EXPECT_EQ(seen_ids.size(), names.size() * kWaves);

  ASSERT_FALSE(stats_line.empty());
  const common::Json stats = common::Json::parse(stats_line);
  EXPECT_EQ(stats.find("errors")->as_number(), 0.0);
  EXPECT_EQ(stats.find("requests")->as_number(),
            static_cast<double>(names.size() * kWaves));
  // The storm routed each distinct circuit exactly once.
  EXPECT_EQ(stats.find("routed")->as_number(),
            static_cast<double>(names.size()));
  EXPECT_EQ(stats.find("cache")->find("misses")->as_number(),
            static_cast<double>(names.size()));
}

TEST(RaceStress, ServeConcurrentInlineDeviceMemoInserts) {
  // Workers race to memoize inline devices by content fingerprint: many
  // requests ship the same few calibrated devices, interleaved so several
  // workers warm and insert the same fingerprint concurrently.
  service::ServeOptions opts;
  opts.defaults.threads = 8;

  auto one_line = [](std::string text) {
    std::replace(text.begin(), text.end(), '\n', ' ');
    return text;
  };
  std::vector<std::string> devices;
  for (int variant = 0; variant < 3; ++variant) {
    arch::Device device = arch::ibm_q16();
    if (variant > 0) {
      // Distinct calibrations → distinct fingerprints → distinct memo
      // entries (a recalibrated device must never alias its twin).
      device.calibration.set_duration_2q(0, 1, 10 + variant);
    }
    devices.push_back(one_line(device_to_json(device)));
  }

  const std::vector<std::string> names = {"ghz_3", "qft_4"};
  std::vector<std::string> lines;
  int id = 0;
  for (int wave = 0; wave < 10; ++wave) {
    for (const std::string& device : devices) {
      for (const std::string& name : names) {
        lines.push_back("{\"id\": " + std::to_string(id++) +
                        ", \"suite_name\": " + common::json_quote(name) +
                        ", \"device\": " + device + "}");
      }
    }
  }
  lines.push_back(R"({"id": "stats", "cmd": "stats"})");

  const std::vector<std::string> responses = serve(opts, lines);
  ASSERT_EQ(responses.size(), lines.size());

  std::string stats_line;
  for (const std::string& line : responses) {
    const common::Json doc = common::Json::parse(line);
    if (doc.find("id")->is_string()) {
      stats_line = line;
      continue;
    }
    ASSERT_NE(doc.find("result"), nullptr) << line;
    EXPECT_EQ(line.find("\"error\": "), std::string::npos) << line;
  }

  ASSERT_FALSE(stats_line.empty());
  const common::Json stats = common::Json::parse(stats_line);
  EXPECT_EQ(stats.find("errors")->as_number(), 0.0);
  // (device, circuit) pairs route once each; every duplicate wave hits.
  EXPECT_EQ(stats.find("routed")->as_number(),
            static_cast<double>(devices.size() * names.size()));
}

}  // namespace
}  // namespace codar
