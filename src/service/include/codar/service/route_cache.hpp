#pragma once

// Tiered, content-addressed route cache for `codar serve`. Keys are
// (circuit fingerprint, device fingerprint, options fingerprint) triples —
// all three content-addressed, so the same circuit under a different label
// or a structurally identical device under a different spec string still
// hits. Values are full RouteReports.
//
// Two tiers: a sharded in-memory LRU in front, and (optionally) a
// persistent store::LogStore behind it. A lookup resolves memory first
// (mem_hits), then probes disk (disk_hits — the report is decoded,
// promoted into the memory tier, and served without routing), and only
// routes on a double miss (misses) — after which the report is appended to
// the disk tier, so a restarted server replays its whole history from disk
// instead of re-routing the world.
//
// Concurrency model: keys are spread over N independently locked shards
// (LRU list + hash map each), so workers routing different circuits never
// contend. Within a shard, concurrent requests for the SAME key are
// single-flighted: the first requester probes disk / routes while later
// ones block on the in-flight entry and reuse its result — a burst of
// identical requests probes disk at most once and routes at most once.
// Disk I/O and routing both happen OUTSIDE every shard lock (the store has
// its own internal mutex). Memory eviction is LRU under a global byte
// budget split evenly across shards; the disk tier evicts under its own
// budget (see store::LogStoreOptions).

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <unordered_map>
#include <vector>

#include "codar/common/thread_annotations.hpp"
#include "codar/pipeline/pipeline.hpp"
#include "codar/store/log_store.hpp"

namespace codar::service {

/// Content-addressed cache key. All three components are fingerprints
/// (ir::Circuit::fingerprint, arch::Device::fingerprint,
/// options_fingerprint).
struct CacheKey {
  std::uint64_t circuit = 0;
  std::uint64_t device = 0;
  std::uint64_t options = 0;

  friend bool operator==(const CacheKey&, const CacheKey&) = default;
};

/// Cache-wide counters (sums over shards, plus the disk tier's gauges
/// when one is attached).
struct CacheCounters {
  std::size_t entries = 0;    ///< Resident memory-tier entries.
  std::size_t bytes = 0;      ///< Approximate resident memory bytes.
  std::size_t mem_hits = 0;   ///< Lookups served by the memory tier
                              ///< (resident entry or coalesced in-flight).
  std::size_t disk_hits = 0;  ///< Lookups served by the disk tier.
  std::size_t misses = 0;     ///< Lookups that had to route.
  std::size_t evictions = 0;  ///< Memory entries dropped by the LRU budget.

  /// Disk tier (all zero when no store is attached).
  std::size_t disk_entries = 0;     ///< Live persisted entries.
  std::size_t disk_bytes = 0;       ///< Live persisted record bytes.
  std::size_t disk_file_bytes = 0;  ///< On-disk segment bytes incl. dead.
  std::size_t disk_evictions = 0;   ///< Entries dropped by the disk budget.

  std::size_t hits() const { return mem_hits + disk_hits; }
};

class RouteCache {
 public:
  /// `byte_budget` caps the total resident report bytes (split evenly
  /// across shards); 0 disables memoization entirely (every lookup routes,
  /// counted as a miss, and the disk tier is bypassed too). `num_shards`
  /// must be >= 1.
  explicit RouteCache(std::size_t byte_budget, int num_shards = 8);

  /// Attaches the persistent disk tier. Not thread-safe: call before the
  /// first get_or_route (serve does this at boot). The store is borrowed,
  /// not owned, and must outlive the cache.
  void attach_store(store::LogStore* log_store) { store_ = log_store; }

  /// Returns the cached report for `key` — from memory, a coalesced
  /// in-flight request, or the disk tier — or invokes `route` to produce
  /// it, stores it (memory + disk) and returns it. Concurrent calls with
  /// the same key do the work once (single-flight). `hit`, when non-null,
  /// is set to true iff the report was produced without invoking `route`.
  pipeline::RouteReport get_or_route(
      const CacheKey& key, const std::function<pipeline::RouteReport()>& route,
      bool* hit = nullptr);

  /// Inserts an entry into the memory tier without touching any counter —
  /// warm-start preloading at serve boot. Evictions still count (they are
  /// real budget pressure).
  void preload(const CacheKey& key, const pipeline::RouteReport& report);

  CacheCounters counters() const;

  /// Times a resident entry was served from the memory tier (its per-entry
  /// hit counter); 0 when absent. Eviction resets it along with the entry.
  std::size_t entry_hits(const CacheKey& key) const;

  std::size_t byte_budget() const { return byte_budget_; }

  /// Approximate resident size of one report (struct + string storage).
  static std::size_t report_bytes(const pipeline::RouteReport& report);

 private:
  struct Entry {
    CacheKey key;
    pipeline::RouteReport report;
    std::size_t bytes = 0;
    std::size_t hits = 0;
  };

  /// A disk probe / route in progress; later requesters for the same key
  /// block on cv.
  struct Inflight {
    common::Mutex m;
    std::condition_variable_any cv;
    bool ready CODAR_GUARDED_BY(m) = false;
    pipeline::RouteReport report CODAR_GUARDED_BY(m);
  };

  struct KeyHash {
    std::size_t operator()(const CacheKey& k) const;
  };

  struct Shard {
    mutable common::Mutex m;
    /// Front = most recently used.
    std::list<Entry> lru CODAR_GUARDED_BY(m);
    std::unordered_map<CacheKey, std::list<Entry>::iterator, KeyHash> index
        CODAR_GUARDED_BY(m);
    std::unordered_map<CacheKey, std::shared_ptr<Inflight>, KeyHash> inflight
        CODAR_GUARDED_BY(m);
    std::size_t bytes CODAR_GUARDED_BY(m) = 0;
    std::size_t mem_hits CODAR_GUARDED_BY(m) = 0;
    std::size_t disk_hits CODAR_GUARDED_BY(m) = 0;
    std::size_t misses CODAR_GUARDED_BY(m) = 0;
    std::size_t evictions CODAR_GUARDED_BY(m) = 0;
  };

  Shard& shard_for(const CacheKey& key);
  const Shard& shard_for(const CacheKey& key) const;
  /// Inserts under the shard lock, then evicts LRU tails over budget.
  void insert_locked(Shard& shard, const CacheKey& key,
                     const pipeline::RouteReport& report)
      CODAR_REQUIRES(shard.m);

  std::size_t byte_budget_;
  std::size_t shard_budget_;
  std::vector<Shard> shards_;
  store::LogStore* store_ = nullptr;  ///< Optional disk tier (borrowed).
};

}  // namespace codar::service
