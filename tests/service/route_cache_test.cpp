// RouteCache unit tests: content-addressed keying, LRU eviction under a
// byte budget, single-flight coalescing, counter correctness under
// concurrent hammering, the non-blocking memory-tier peek, and the
// persistent disk tier (store::LogStore behind the memory LRU).

#include "codar/service/route_cache.hpp"

#include <atomic>
#include <chrono>
#include <filesystem>
#include <future>
#include <latch>
#include <optional>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "codar/arch/device.hpp"
#include "codar/cli/options.hpp"
#include "codar/pipeline/pipeline.hpp"
#include "codar/service/protocol.hpp"
#include "codar/store/report_codec.hpp"
#include "codar/workloads/generators.hpp"

namespace codar::service {
namespace {

using pipeline::RouteReport;

RouteReport report_named(const std::string& name, std::size_t swaps) {
  RouteReport r;
  r.name = name;
  r.swaps = swaps;
  r.verified = true;
  return r;
}

CacheKey key_of(std::uint64_t circuit, std::uint64_t device,
                std::uint64_t options) {
  return CacheKey{circuit, device, options};
}

TEST(RouteCache, MissRoutesThenHitsWithoutRouting) {
  RouteCache cache(1 << 20, /*num_shards=*/1);
  int routes = 0;
  const CacheKey key = key_of(1, 2, 3);
  auto route = [&] {
    ++routes;
    return report_named("a", 7);
  };

  bool hit = true;
  RouteReport r = cache.get_or_route(key, route, &hit);
  EXPECT_FALSE(hit);
  EXPECT_EQ(routes, 1);
  EXPECT_EQ(r.swaps, 7u);

  r = cache.get_or_route(key, route, &hit);
  EXPECT_TRUE(hit);
  EXPECT_EQ(routes, 1);  // served from cache, no second route
  EXPECT_EQ(r.swaps, 7u);

  const CacheCounters c = cache.counters();
  EXPECT_EQ(c.hits(), 1u);
  EXPECT_EQ(c.mem_hits, 1u);
  EXPECT_EQ(c.disk_hits, 0u);  // no store attached
  EXPECT_EQ(c.misses, 1u);
  EXPECT_EQ(c.entries, 1u);
  EXPECT_EQ(cache.entry_hits(key), 1u);
}

TEST(RouteCache, DistinctKeyComponentsNeverCollide) {
  // Any single differing component — circuit, device or options
  // fingerprint — must select a distinct entry.
  RouteCache cache(1 << 20, /*num_shards=*/4);
  int routes = 0;
  auto route = [&] { return report_named("r", static_cast<std::size_t>(++routes)); };

  const std::vector<CacheKey> keys = {
      key_of(1, 1, 1), key_of(2, 1, 1), key_of(1, 2, 1), key_of(1, 1, 2),
  };
  for (const CacheKey& k : keys) cache.get_or_route(k, route);
  EXPECT_EQ(routes, 4);

  // Re-requesting each key returns its own report, not a neighbour's.
  std::size_t expected = 0;
  for (const CacheKey& k : keys) {
    bool hit = false;
    const RouteReport r = cache.get_or_route(k, route, &hit);
    EXPECT_TRUE(hit);
    EXPECT_EQ(r.swaps, ++expected);
  }
  EXPECT_EQ(cache.counters().entries, 4u);
}

TEST(RouteCache, RealFingerprintsGiveDistinctKeys) {
  // Sanity over the real fingerprint functions: different devices and
  // different option sets produce different key components.
  pipeline::RoutingSpec base;
  pipeline::RoutingSpec sabre = base;
  sabre.router = "sabre";
  pipeline::RoutingSpec no_context = base;
  no_context.codar.context_aware = false;
  pipeline::RoutingSpec reseeded = base;
  reseeded.seed = base.seed + 1;
  pipeline::RoutingSpec reweighted = base;
  reweighted.fid.beta = 0.0;  // result-changing for codar-fid
  pipeline::RoutingSpec whole_circuit = base;
  whole_circuit.mapping_horizon = 0;  // layout searched past the horizon
  EXPECT_NE(options_fingerprint(base), options_fingerprint(sabre));
  EXPECT_NE(options_fingerprint(base), options_fingerprint(no_context));
  EXPECT_NE(options_fingerprint(base), options_fingerprint(reseeded));
  EXPECT_NE(options_fingerprint(base), options_fingerprint(reweighted));
  EXPECT_NE(options_fingerprint(base), options_fingerprint(whole_circuit));

  EXPECT_NE(arch::ibm_q20_tokyo().fingerprint(),
            arch::enfield_6x6().fingerprint());
}

TEST(RouteCache, PinnedOptionsFingerprintValues) {
  // Pinned like the circuit and device fingerprints: the options
  // fingerprint is the third cache-key component, so a silent change
  // would turn every persisted --cache-dir entry into a miss. If a
  // schema change is intentional, bump the version tag in
  // options_fingerprint and re-pin.
  EXPECT_EQ(options_fingerprint(pipeline::RoutingSpec{}),
            0xd5807bed3af03478ull);

  pipeline::RoutingSpec every;  // every fingerprinted field off its default
  every.router = "codar-fid";
  every.mapping = "greedy";
  every.seed = 3;
  every.mapping_rounds = 2;
  every.mapping_horizon = 0;
  every.peephole = true;
  every.verify = false;
  every.codar.context_aware = false;
  every.codar.duration_aware = false;
  every.codar.commutativity_aware = false;
  every.codar.fine_priority = false;
  every.codar.front_window = 8;
  every.codar.stagnation_threshold = 5;
  every.fid.alpha = 1.5;
  every.fid.beta = 0.0;
  every.fid.gamma = 2.25;
  EXPECT_EQ(options_fingerprint(every), 0xcc407f59f01286e4ull);
}

TEST(RouteCache, TimingAndPathsDoNotChangeOptionsFingerprint) {
  // Presentation-only fields must not fragment the cache.
  cli::Options base;
  cli::Options timed = base;
  timed.timing = true;
  timed.threads = 12;
  timed.device = "enfield";  // the device is keyed by its content
  timed.stats_path = "/tmp/x.json";
  EXPECT_EQ(options_fingerprint(base), options_fingerprint(timed));
}

TEST(RouteCache, DecodedReportCountsTheSameBytesAsRouted) {
  // The memory tier keeps a routed report without its wall times, which
  // the disk tier does not store either; the byte budget must not tell
  // the two apart, or which entries a tight budget evicts would depend on
  // the tier they came from.
  const RouteReport routed = pipeline::route_circuit(
      workloads::qft(8), arch::ibm_q20_tokyo(), pipeline::RoutingSpec{},
      /*keep_qasm=*/true);
  ASSERT_TRUE(routed.ok()) << routed.error;
  ASSERT_FALSE(routed.stage_us.empty());
  RouteReport decoded;
  ASSERT_TRUE(store::decode_report(store::encode_report(routed), &decoded));
  RouteCache cache(1u << 20, /*num_shards=*/1);
  const RouteReport returned =
      cache.get_or_route(key_of(1, 0, 0), [&] { return routed; });
  EXPECT_EQ(cache.counters().bytes, RouteCache::report_bytes(decoded));
  // Only the caller whose route ran sees the wall times.
  EXPECT_EQ(returned.route_us, routed.route_us);
  EXPECT_EQ(returned.stage_us.size(), routed.stage_us.size());
  EXPECT_EQ(cache.get_or_route(key_of(1, 0, 0), [&] { return routed; })
                .stage_us.size(),
            0u);
}

TEST(RouteCache, LruEvictionUnderByteBudget) {
  // Budget for roughly two entries in one shard; the coldest key must go.
  const RouteReport sample = report_named("x", 0);
  const std::size_t entry_bytes = RouteCache::report_bytes(sample);
  RouteCache cache(2 * entry_bytes + entry_bytes / 2, /*num_shards=*/1);
  auto route = [&] { return sample; };

  cache.get_or_route(key_of(1, 0, 0), route);
  cache.get_or_route(key_of(2, 0, 0), route);
  EXPECT_EQ(cache.counters().entries, 2u);
  EXPECT_EQ(cache.counters().evictions, 0u);

  // Touch key 1 so key 2 is the LRU victim when key 3 arrives.
  bool hit = false;
  cache.get_or_route(key_of(1, 0, 0), route, &hit);
  EXPECT_TRUE(hit);
  cache.get_or_route(key_of(3, 0, 0), route);

  const CacheCounters c = cache.counters();
  EXPECT_EQ(c.entries, 2u);
  EXPECT_EQ(c.evictions, 1u);
  EXPECT_LE(c.bytes, cache.byte_budget());

  // Keys 1 and 3 are resident; key 2 was the LRU victim and misses again.
  cache.get_or_route(key_of(1, 0, 0), route, &hit);
  EXPECT_TRUE(hit);
  cache.get_or_route(key_of(3, 0, 0), route, &hit);
  EXPECT_TRUE(hit);
  cache.get_or_route(key_of(2, 0, 0), route, &hit);
  EXPECT_FALSE(hit);
}

TEST(RouteCache, OversizedEntryDoesNotPinTheShard) {
  RouteReport huge = report_named("huge", 1);
  huge.routed_qasm.assign(1 << 16, 'q');
  RouteCache cache(256, /*num_shards=*/1);
  cache.get_or_route(key_of(1, 0, 0), [&] { return huge; });
  const CacheCounters c = cache.counters();
  EXPECT_EQ(c.entries, 0u);  // rejected straight away
  EXPECT_EQ(c.bytes, 0u);
  EXPECT_EQ(c.evictions, 1u);
}

TEST(RouteCache, OversizedEntryDoesNotFlushWarmEntries) {
  // An over-budget report must be rejected up front, not admitted and
  // then evicted cold-end-first (which would flush the warm entries).
  const RouteReport small = report_named("s", 0);
  const std::size_t entry_bytes = RouteCache::report_bytes(small);
  RouteCache cache(3 * entry_bytes, /*num_shards=*/1);
  auto route_small = [&] { return small; };
  cache.get_or_route(key_of(1, 0, 0), route_small);
  cache.get_or_route(key_of(2, 0, 0), route_small);

  RouteReport huge = report_named("huge", 1);
  huge.routed_qasm.assign(16 * entry_bytes, 'q');
  cache.get_or_route(key_of(3, 0, 0), [&] { return huge; });

  // Both warm entries survived; only the oversized one was dropped.
  bool hit = false;
  cache.get_or_route(key_of(1, 0, 0), route_small, &hit);
  EXPECT_TRUE(hit);
  cache.get_or_route(key_of(2, 0, 0), route_small, &hit);
  EXPECT_TRUE(hit);
  const CacheCounters c = cache.counters();
  EXPECT_EQ(c.entries, 2u);
  EXPECT_EQ(c.evictions, 1u);
}

TEST(RouteCache, ZeroBudgetDisablesMemoization) {
  RouteCache cache(0, /*num_shards=*/2);
  int routes = 0;
  auto route = [&] {
    ++routes;
    return report_named("a", 1);
  };
  for (int i = 0; i < 3; ++i) {
    bool hit = true;
    cache.get_or_route(key_of(9, 9, 9), route, &hit);
    EXPECT_FALSE(hit);
  }
  EXPECT_EQ(routes, 3);
  const CacheCounters c = cache.counters();
  EXPECT_EQ(c.misses, 3u);
  EXPECT_EQ(c.hits(), 0u);
  EXPECT_EQ(c.entries, 0u);
}

TEST(RouteCache, PeekAnswersOnlyResidentEntries) {
  const RouteReport sample = report_named("x", 0);
  const std::size_t entry_bytes = RouteCache::report_bytes(sample);
  RouteCache cache(2 * entry_bytes + entry_bytes / 2, /*num_shards=*/1);

  // Absent: nothing, and no counter moves.
  EXPECT_FALSE(cache.peek(key_of(1, 0, 0)).has_value());
  CacheCounters c = cache.counters();
  EXPECT_EQ(c.mem_hits + c.disk_hits + c.misses, 0u);

  const RouteReport routed =
      cache.get_or_route(key_of(1, 0, 0), [] { return report_named("a", 7); });
  cache.get_or_route(key_of(2, 0, 0), [&] { return sample; });

  // Resident: the report get_or_route returned, counted as one memory
  // hit on the cache and on the entry.
  const std::optional<RouteReport> peeked = cache.peek(key_of(1, 0, 0));
  ASSERT_TRUE(peeked.has_value());
  EXPECT_EQ(peeked->name, routed.name);
  EXPECT_EQ(peeked->swaps, routed.swaps);
  c = cache.counters();
  EXPECT_EQ(c.mem_hits, 1u);
  EXPECT_EQ(c.misses, 2u);
  EXPECT_EQ(cache.entry_hits(key_of(1, 0, 0)), 1u);

  // The peek refreshed key 1's recency: key 3 pushes the shard over
  // budget and evicts key 2, the entry nobody looked at since.
  cache.get_or_route(key_of(3, 0, 0), [&] { return sample; });
  EXPECT_EQ(cache.counters().evictions, 1u);
  EXPECT_TRUE(cache.peek(key_of(1, 0, 0)).has_value());
  EXPECT_FALSE(cache.peek(key_of(2, 0, 0)).has_value());
}

TEST(RouteCache, PeekNeverWaitsForAnInflightRoute) {
  RouteCache cache(1 << 20, /*num_shards=*/1);
  const CacheKey key = key_of(4, 5, 6);
  std::latch routing(1);
  std::latch release(1);
  std::thread owner([&] {
    cache.get_or_route(key, [&] {
      routing.count_down();
      release.wait();
      return report_named("slow", 3);
    });
  });
  routing.wait();
  // The owner is parked inside route: a peek must answer at once (a
  // joining peek would block until the latch opens).
  auto peeked = std::async(std::launch::async, [&] { return cache.peek(key); });
  const bool answered = peeked.wait_for(std::chrono::seconds(10)) ==
                        std::future_status::ready;
  const CacheCounters during = cache.counters();
  release.count_down();
  owner.join();
  EXPECT_TRUE(answered) << "peek waited on the in-flight route";
  EXPECT_FALSE(peeked.get().has_value());
  EXPECT_EQ(during.mem_hits + during.disk_hits + during.misses, 0u);

  // Once the route completes the entry is resident and peek serves it.
  const std::optional<RouteReport> done = cache.peek(key);
  ASSERT_TRUE(done.has_value());
  EXPECT_EQ(done->swaps, 3u);
  EXPECT_EQ(cache.counters().mem_hits, 1u);
}

TEST(RouteCache, PeekWithZeroBudgetAnswersNothing) {
  RouteCache cache(0, /*num_shards=*/1);
  cache.get_or_route(key_of(1, 1, 1), [] { return report_named("a", 1); });
  EXPECT_FALSE(cache.peek(key_of(1, 1, 1)).has_value());
  const CacheCounters c = cache.counters();
  EXPECT_EQ(c.hits(), 0u);
  EXPECT_EQ(c.misses, 1u);
}

TEST(RouteCache, ConcurrentHitMissCountingIsExact) {
  // N threads x M iterations over K distinct keys. Single-flight
  // guarantees each key routes exactly once; every other lookup must be
  // a hit, and hits + misses must equal total lookups.
  constexpr int kThreads = 8;
  constexpr int kIters = 50;
  constexpr std::uint64_t kKeys = 5;

  RouteCache cache(1 << 20, /*num_shards=*/4);
  std::atomic<int> routes{0};
  std::vector<std::thread> pool;
  pool.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&, t] {
      for (int i = 0; i < kIters; ++i) {
        const std::uint64_t k =
            static_cast<std::uint64_t>(t + i) % kKeys;
        const RouteReport r = cache.get_or_route(
            key_of(k, 0, 0), [&] {
              ++routes;
              return report_named("k", static_cast<std::size_t>(k));
            });
        // Every requester gets the right key's report, coalesced or not.
        EXPECT_EQ(r.swaps, static_cast<std::size_t>(k));
      }
    });
  }
  for (std::thread& t : pool) t.join();

  EXPECT_EQ(routes.load(), static_cast<int>(kKeys));
  const CacheCounters c = cache.counters();
  EXPECT_EQ(c.misses, kKeys);
  EXPECT_EQ(c.hits() + c.misses,
            static_cast<std::size_t>(kThreads) * kIters);
  EXPECT_EQ(c.entries, kKeys);
}

// --- Disk tier ------------------------------------------------------------

class TieredRouteCacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::path(testing::TempDir()) /
           ("codar_tiered_cache_" +
            std::string(
                ::testing::UnitTest::GetInstance()->current_test_info()->name()));
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

  std::unique_ptr<store::LogStore> open_store() {
    return store::LogStore::open(dir_.string(), {});
  }

  std::filesystem::path dir_;
};

TEST_F(TieredRouteCacheTest, DiskTierServesAcrossCacheInstances) {
  const CacheKey key = key_of(11, 22, 33);
  {
    auto log = open_store();
    RouteCache cache(1 << 20, /*num_shards=*/1);
    cache.attach_store(log.get());
    bool hit = true;
    cache.get_or_route(key, [] { return report_named("cold", 9); }, &hit);
    EXPECT_FALSE(hit);
    EXPECT_EQ(cache.counters().disk_entries, 1u);
  }
  // A fresh cache over the same directory — the restarted-server shape.
  auto log = open_store();
  RouteCache cache(1 << 20, /*num_shards=*/1);
  cache.attach_store(log.get());
  int routes = 0;
  bool hit = false;
  RouteReport r = cache.get_or_route(
      key,
      [&] {
        ++routes;
        return report_named("never", 0);
      },
      &hit);
  EXPECT_TRUE(hit);
  EXPECT_EQ(routes, 0);  // served from disk, not re-routed
  EXPECT_EQ(r.swaps, 9u);
  EXPECT_EQ(r.name, "cold");

  // The disk hit promoted the entry; the next lookup is a memory hit.
  cache.get_or_route(key, [&] { return report_named("never", 0); }, &hit);
  EXPECT_TRUE(hit);
  const CacheCounters c = cache.counters();
  EXPECT_EQ(c.disk_hits, 1u);
  EXPECT_EQ(c.mem_hits, 1u);
  EXPECT_EQ(c.misses, 0u);
}

TEST_F(TieredRouteCacheTest, PeekDoesNotProbeOrPromoteTheDiskTier) {
  const CacheKey key = key_of(12, 23, 34);
  {
    auto log = open_store();
    RouteCache cache(1 << 20, /*num_shards=*/1);
    cache.attach_store(log.get());
    cache.get_or_route(key, [] { return report_named("cold", 9); });
  }
  auto log = open_store();
  RouteCache cache(1 << 20, /*num_shards=*/1);
  cache.attach_store(log.get());
  EXPECT_FALSE(cache.peek(key).has_value());
  CacheCounters c = cache.counters();
  EXPECT_EQ(c.entries, 0u);
  EXPECT_EQ(c.mem_hits + c.disk_hits + c.misses, 0u);

  // The entry is still only on disk: the next lookup is a disk hit.
  bool hit = false;
  const RouteReport r =
      cache.get_or_route(key, [] { return report_named("never", 0); }, &hit);
  EXPECT_TRUE(hit);
  EXPECT_EQ(r.swaps, 9u);
  c = cache.counters();
  EXPECT_EQ(c.disk_hits, 1u);
  EXPECT_EQ(c.mem_hits, 0u);
}

TEST_F(TieredRouteCacheTest, ErrorReportsAreNotPersisted) {
  const CacheKey key = key_of(1, 2, 3);
  {
    auto log = open_store();
    RouteCache cache(1 << 20, /*num_shards=*/1);
    cache.attach_store(log.get());
    const RouteReport r = cache.get_or_route(
        key, []() -> RouteReport { throw std::runtime_error("boom"); });
    EXPECT_EQ(r.error, "boom");
    EXPECT_EQ(cache.counters().disk_entries, 0u);
  }
  // A later, fixed route for the same key must actually route (the error
  // never made it to disk) and then persist the good report.
  auto log = open_store();
  RouteCache cache(1 << 20, /*num_shards=*/1);
  cache.attach_store(log.get());
  bool hit = true;
  const RouteReport r =
      cache.get_or_route(key, [] { return report_named("fixed", 4); }, &hit);
  EXPECT_FALSE(hit);
  EXPECT_TRUE(r.error.empty());
  EXPECT_EQ(cache.counters().disk_entries, 1u);
}

TEST_F(TieredRouteCacheTest, PreloadServesFromMemoryWithoutCounters) {
  const CacheKey key = key_of(7, 8, 9);
  {
    auto log = open_store();
    RouteCache cache(1 << 20, /*num_shards=*/1);
    cache.attach_store(log.get());
    cache.get_or_route(key, [] { return report_named("warm", 5); });
  }
  auto log = open_store();
  RouteCache cache(1 << 20, /*num_shards=*/1);
  cache.attach_store(log.get());
  // Warm-start: decode the persisted entries and preload them.
  for (const auto& [fp, payload] : log->recent_entries(16)) {
    RouteReport report;
    ASSERT_TRUE(store::decode_report(payload, &report));
    cache.preload(CacheKey{fp.circuit, fp.device, fp.options}, report);
  }
  CacheCounters c = cache.counters();
  EXPECT_EQ(c.entries, 1u);
  EXPECT_EQ(c.mem_hits, 0u);  // preloading itself counts nothing

  bool hit = false;
  const RouteReport r = cache.get_or_route(
      key, [] { return report_named("never", 0); }, &hit);
  EXPECT_TRUE(hit);
  EXPECT_EQ(r.swaps, 5u);
  c = cache.counters();
  EXPECT_EQ(c.mem_hits, 1u);  // served by the memory tier, not disk
  EXPECT_EQ(c.disk_hits, 0u);
}

TEST_F(TieredRouteCacheTest, ZeroBudgetBypassesDiskTier) {
  auto log = open_store();
  RouteCache cache(0, /*num_shards=*/1);
  cache.attach_store(log.get());
  int routes = 0;
  for (int i = 0; i < 2; ++i) {
    bool hit = true;
    cache.get_or_route(
        key_of(1, 1, 1),
        [&] {
          ++routes;
          return report_named("x", 1);
        },
        &hit);
    EXPECT_FALSE(hit);
  }
  EXPECT_EQ(routes, 2);
  EXPECT_EQ(log->stats().entries, 0u);  // nothing persisted either
}

}  // namespace
}  // namespace codar::service
