#include "codar/service/route_cache.hpp"

#include "codar/common/expects.hpp"
#include "codar/common/fnv.hpp"
#include "codar/store/report_codec.hpp"

namespace codar::service {

namespace {

store::Fingerprint to_fingerprint(const CacheKey& key) {
  return store::Fingerprint{key.circuit, key.device, key.options};
}

}  // namespace

std::size_t RouteCache::KeyHash::operator()(const CacheKey& k) const {
  common::Fnv1a h;
  h.u64(k.circuit);
  h.u64(k.device);
  h.u64(k.options);
  return static_cast<std::size_t>(h.value());
}

RouteCache::RouteCache(std::size_t byte_budget, int num_shards)
    : byte_budget_(byte_budget),
      shard_budget_(byte_budget / static_cast<std::size_t>(
                                      num_shards > 0 ? num_shards : 1)),
      shards_(static_cast<std::size_t>(num_shards)) {
  CODAR_EXPECTS(num_shards >= 1);
}

RouteCache::Shard& RouteCache::shard_for(const CacheKey& key) {
  return shards_[static_cast<std::size_t>(KeyHash{}(key)) % shards_.size()];
}

const RouteCache::Shard& RouteCache::shard_for(const CacheKey& key) const {
  return shards_[static_cast<std::size_t>(KeyHash{}(key)) % shards_.size()];
}

std::size_t RouteCache::report_bytes(const pipeline::RouteReport& report) {
  // Sizes, not capacities: a routed report grows its vectors by push_back
  // while a decoded one reserves them exactly, and the same report must
  // count the same bytes however it arrived.
  std::size_t bytes = sizeof(pipeline::RouteReport) + report.name.size() +
                      report.error.size() + report.routed_qasm.size();
  bytes += report.stage_us.size() * sizeof(pipeline::StageTiming);
  for (const pipeline::StageTiming& t : report.stage_us) {
    bytes += t.stage.size();
  }
  return bytes;
}

void RouteCache::insert_locked(Shard& shard, const CacheKey& key,
                               const pipeline::RouteReport& report) {
  Entry entry{key, report, report_bytes(report), /*hits=*/0};
  // An entry that alone exceeds the shard budget is rejected up front
  // (counted as an eviction): admitting it first would flush every warm
  // resident entry before the oversized one got dropped anyway.
  if (entry.bytes > shard_budget_) {
    ++shard.evictions;
    return;
  }
  shard.bytes += entry.bytes;
  shard.lru.push_front(std::move(entry));
  shard.index[key] = shard.lru.begin();
  // Evict from the cold end until back under budget.
  while (shard.bytes > shard_budget_ && !shard.lru.empty()) {
    const Entry& victim = shard.lru.back();
    shard.bytes -= victim.bytes;
    shard.index.erase(victim.key);
    shard.lru.pop_back();
    ++shard.evictions;
  }
}

void RouteCache::preload(const CacheKey& key,
                         const pipeline::RouteReport& report) {
  if (byte_budget_ == 0) return;
  Shard& shard = shard_for(key);
  const common::MutexLock lock(shard.m);
  if (shard.index.contains(key)) return;  // already resident
  insert_locked(shard, key, report);
}

pipeline::RouteReport RouteCache::get_or_route(
    const CacheKey& key, const std::function<pipeline::RouteReport()>& route,
    bool* hit) {
  if (byte_budget_ == 0) {
    Shard& shard = shard_for(key);
    {
      const common::MutexLock lock(shard.m);
      ++shard.misses;
    }
    if (hit) *hit = false;
    return route();
  }

  Shard& shard = shard_for(key);
  std::shared_ptr<Inflight> flight;
  bool owner = false;
  {
    const common::MutexLock lock(shard.m);
    if (const auto it = shard.index.find(key); it != shard.index.end()) {
      ++shard.mem_hits;
      ++it->second->hits;
      // Refresh LRU position.
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
      if (hit) *hit = true;
      return it->second->report;
    }
    if (const auto it = shard.inflight.find(key);
        it != shard.inflight.end()) {
      // Someone is already probing disk / routing this key: wait for their
      // result instead of burning a worker on duplicate work.
      flight = it->second;
      ++shard.mem_hits;
    } else {
      flight = std::make_shared<Inflight>();
      shard.inflight.emplace(key, flight);
      // Whether this counts as a disk hit or a miss is decided below,
      // once the disk probe has resolved.
      owner = true;
    }
  }

  if (!owner) {
    const common::MutexLock flight_lock(flight->m);
    while (!flight->ready) flight->cv.wait(flight->m);
    if (hit) *hit = true;
    return flight->report;
  }

  // Single-flight owner: probe the disk tier, then route on a double
  // miss — all outside every shard lock (the store has its own mutex).
  pipeline::RouteReport report;
  bool from_disk = false;
  if (store_ != nullptr) {
    std::string payload;
    if (store_->get(to_fingerprint(key), &payload)) {
      // An undecodable payload (format-version bump, bit rot caught by
      // the CRC upstream) simply falls through to routing.
      from_disk = store::decode_report(payload, &report);
    }
  }
  if (!from_disk) {
    try {
      report = route();
    } catch (const std::exception& e) {
      report.error = e.what();
    }
    // Persist fresh successful routes; error reports are transient (a
    // bad request re-fails cheaply, and must not shadow a later fix).
    if (store_ != nullptr && report.error.empty()) {
      store_->put(to_fingerprint(key), store::encode_report(report));
    }
  }
  {
    const common::MutexLock lock(shard.m);
    insert_locked(shard, key, report);
    if (from_disk) {
      ++shard.disk_hits;
    } else {
      ++shard.misses;
    }
    shard.inflight.erase(key);
  }
  {
    const common::MutexLock flight_lock(flight->m);
    flight->report = report;
    flight->ready = true;
  }
  flight->cv.notify_all();
  if (hit) *hit = from_disk;
  return report;
}

CacheCounters RouteCache::counters() const {
  CacheCounters total;
  for (const Shard& shard : shards_) {
    const common::MutexLock lock(shard.m);
    total.entries += shard.lru.size();
    total.bytes += shard.bytes;
    total.mem_hits += shard.mem_hits;
    total.disk_hits += shard.disk_hits;
    total.misses += shard.misses;
    total.evictions += shard.evictions;
  }
  if (store_ != nullptr) {
    const store::StoreStats s = store_->stats();
    total.disk_entries = s.entries;
    total.disk_bytes = s.live_bytes;
    total.disk_file_bytes = s.file_bytes;
    total.disk_evictions = s.evictions;
  }
  return total;
}

std::size_t RouteCache::entry_hits(const CacheKey& key) const {
  const Shard& shard = shard_for(key);
  const common::MutexLock lock(shard.m);
  const auto it = shard.index.find(key);
  return it == shard.index.end() ? 0 : it->second->hits;
}

}  // namespace codar::service
