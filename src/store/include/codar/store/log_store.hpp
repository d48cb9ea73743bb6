#pragma once

// Crash-safe, append-only persistence for the content-addressed route
// cache: the disk tier behind service::RouteCache. A store directory holds
// numbered segment files (`codar-<seq>.seg`), each a sequence of
// checksummed records:
//
//   segment  := magic "CODARSG1" record*
//   record   := u32 payload_len | u32 crc32c | key (3 × u64 LE) | payload
//
// The CRC covers key + payload, so a torn tail (power cut mid-append), a
// bit-flipped byte or a short header all surface as "first bad record" on
// open — recovery truncates the segment there, logs a warning, and serves
// everything before it. Zero-length and foreign-magic segment files are
// dropped with a warning. Opening never throws for *corruption*; it only
// throws when the directory is unusable (uncreatable, or flock-held by a
// live process — see common::DirLock).
//
// The in-memory index is rebuilt by scanning segments oldest-first; a
// fingerprint appearing again later supersedes its earlier record
// (last-write-wins), leaving the old bytes as dead weight until compaction
// rewrites live records into a fresh segment and deletes the originals.
// The active segment rotates past `max_segment_bytes`; when live payload
// exceeds `max_total_bytes` the oldest-appended entries are evicted
// (index-only — their bytes die at the next compaction). Append order
// therefore approximates recency, which is what warm-start preloading and
// eviction both lean on.
//
// The index is two flat arrays. Every indexed record has a 48-byte entry
// (key, segment, offset, payload length, live flag) in one vector kept in
// append order, which is ascending (segment, offset) order; an entry that
// is superseded or evicted is only marked dead. A table of 32-bit entry
// indices (power-of-two size, linear probing, load at most 3/4,
// backward-shift deletion) finds a key's live entry. Eviction takes the
// oldest live entry from a head cursor; once dead entries outnumber live
// ones they are squeezed out of the vector and the table is rebuilt; warm
// start and compaction walk the vector. That is about 55 bytes and no heap
// node per record. The vector stops at 2^32 − 1 entries (one index value
// marks an empty slot): at that cap dead entries are squeezed out, and if
// none are dead the oldest live entry is evicted first.
//
// Concurrency: one annotated mutex serializes every operation. Disk
// lookups happen only on a memory-tier miss and appends only on a fresh
// route, so store contention is never on the serve hot path; what matters
// is that RouteCache calls into the store *outside* its shard locks.
//
// Durability contract: append() returns once the record reached the
// kernel (process death loses nothing); machine-crash durability costs an
// explicit sync_every_append. Either way recovery truncates any torn tail
// instead of refusing to start. An append that fails partway is cut off
// the segment again (or, if the cut fails, left for recovery while appends
// move to a fresh segment), so it never shifts the records after it.

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "codar/common/file_io.hpp"
#include "codar/common/thread_annotations.hpp"

namespace codar::store {

/// The content-addressed key of one record: the route cache's
/// (circuit, device, options) fingerprint triple.
struct Fingerprint {
  std::uint64_t circuit = 0;
  std::uint64_t device = 0;
  std::uint64_t options = 0;

  friend bool operator==(const Fingerprint&, const Fingerprint&) = default;
};

struct FingerprintHash {
  std::size_t operator()(const Fingerprint& fp) const;
};

struct LogStoreOptions {
  /// Rotate the active segment once it grows past this.
  std::size_t max_segment_bytes = 64u << 20;
  /// Budget over *live* record bytes; 0 = unbounded. Exceeding it evicts
  /// the oldest-appended entries.
  std::size_t max_total_bytes = 1u << 30;
  /// Compact when dead bytes exceed this fraction of on-disk bytes (and
  /// there is more than one segment's worth of data to reclaim).
  double compact_waste_ratio = 0.5;
  /// fsync after every append: machine-crash durability at ~1 ms/record.
  /// Off by default — process crashes (SIGKILL) lose nothing either way.
  bool sync_every_append = false;
  /// Sink for recovery/corruption warnings. Null = silent.
  std::function<void(const std::string&)> log;
};

/// Counters and sizes, all monotonically maintained under the store lock.
struct StoreStats {
  std::size_t entries = 0;        ///< Live index entries.
  std::size_t live_bytes = 0;     ///< Record bytes reachable via the index.
  std::size_t file_bytes = 0;     ///< Total segment bytes incl. dead records.
  std::size_t segments = 0;       ///< Segment files on disk.
  std::size_t appends = 0;        ///< put() calls this session.
  std::size_t evictions = 0;      ///< Entries dropped by a budget or the cap.
  std::size_t compactions = 0;    ///< Compaction passes this session.
  std::size_t recovered = 0;      ///< Records indexed by open()'s scan.
  std::size_t corrupt_dropped = 0;///< Records/files dropped by recovery.
};

class LogStore {
 public:
  /// Opens (creating if needed) the store in `dir`, scans and recovers
  /// segments, and takes the directory lock. Throws std::runtime_error
  /// when the directory is unusable or locked by another process;
  /// corruption never throws (see file comment).
  static std::unique_ptr<LogStore> open(const std::string& dir,
                                        LogStoreOptions options);

  ~LogStore();

  /// Copies the payload for `fp` into `*payload`. False = not stored.
  bool get(const Fingerprint& fp, std::string* payload) const;

  /// Appends (fp → payload), superseding any previous record for `fp`,
  /// then applies rotation / eviction / compaction policy. A payload that
  /// alone exceeds the byte budget is ignored (counted as an eviction).
  /// Returns false only on an I/O error (the store stays usable; the
  /// entry is simply not persisted).
  bool put(const Fingerprint& fp, std::string_view payload);

  /// Up to `n` live entries in oldest→newest append order — the warm-start
  /// feed: replaying it through an LRU leaves the hottest entry most
  /// recently used. Entries whose payload fails to re-read are skipped.
  std::vector<std::pair<Fingerprint, std::string>> recent_entries(
      std::size_t n) const;

  /// Rewrites live records into fresh segments and deletes the old files.
  /// Returns bytes reclaimed. (Runs automatically per policy; public for
  /// tests and tooling.)
  std::size_t compact();

  StoreStats stats() const;

  const std::string& dir() const { return dir_; }

 private:
  /// One indexed record, in append order. Superseded and evicted records
  /// stay until the next squeeze, marked dead.
  struct Entry {
    Fingerprint key;
    std::uint64_t segment = 0;      ///< Segment sequence number.
    std::uint64_t offset = 0;       ///< Byte offset of the record header.
    std::uint32_t payload_len = 0;
    bool live = true;
  };
  static_assert(sizeof(Entry) <= 48);

  struct Segment {
    std::string path;
    std::uint64_t bytes = 0;  ///< File size (header + records).
    mutable std::unique_ptr<common::RandomReadFile> reader;
  };

  LogStore(std::string dir, LogStoreOptions options);

  void recover() CODAR_REQUIRES(m_);
  /// Scans one segment file, indexing its records; truncates at the first
  /// bad record. Returns false when the whole file was dropped.
  bool recover_segment(std::uint64_t seq, const std::string& path)
      CODAR_REQUIRES(m_);
  void open_active_segment(std::uint64_t seq) CODAR_REQUIRES(m_);
  bool append_record(const Fingerprint& fp, std::string_view payload)
      CODAR_REQUIRES(m_);
  /// Appends `size` bytes to the active segment at its recorded size. On
  /// failure the segment is cut back to that size, or left for a fresh one
  /// when it cannot be, so a torn write never shifts later records.
  bool append_active(const char* data, std::size_t size) CODAR_REQUIRES(m_);
  void index_record(const Fingerprint& fp, std::uint64_t segment,
                    std::uint64_t offset, std::uint32_t payload_len)
      CODAR_REQUIRES(m_);
  std::size_t live_entries() const CODAR_REQUIRES(m_) {
    return entries_.size() - dead_;
  }
  /// The slot holding `fp`'s live entry, or the empty slot ending its probe
  /// chain.
  std::size_t find_slot(const Fingerprint& fp) const CODAR_REQUIRES(m_);
  /// Empties `slot` by backward-shift deletion: later members of its probe
  /// chain move up, so no lookup ever needs a tombstone.
  void erase_slot(std::size_t slot) CODAR_REQUIRES(m_);
  /// Resizes the table to `size` slots and reinserts every live entry.
  void rebuild_table(std::size_t size) CODAR_REQUIRES(m_);
  /// Marks entries_[entry] dead (superseded or evicted).
  void retire(std::size_t entry) CODAR_REQUIRES(m_);
  void evict_oldest() CODAR_REQUIRES(m_);
  /// Drops dead entries from the vector and rebuilds the table.
  void squeeze() CODAR_REQUIRES(m_);
  void enforce_budget() CODAR_REQUIRES(m_);
  void maybe_compact() CODAR_REQUIRES(m_);
  std::size_t compact_locked() CODAR_REQUIRES(m_);
  bool read_payload(const Entry& entry, std::string* payload) const
      CODAR_REQUIRES(m_);
  /// Copies out the payload of `record` (the bytes read back for `entry`)
  /// when its length and CRC still check out.
  bool verified_payload(const char* record, const Entry& entry,
                        std::string* payload) const;
  common::RandomReadFile* reader_for(std::uint64_t segment) const
      CODAR_REQUIRES(m_);
  void warn(const std::string& message) const;

  const std::string dir_;
  const LogStoreOptions options_;
  /// Taken before any scan, released on destruction (or process death).
  std::unique_ptr<common::DirLock> lock_;

  mutable common::Mutex m_;
  /// Every indexed record, oldest first; entries_[0, head_) are all dead,
  /// so eviction resumes at head_.
  std::vector<Entry> entries_ CODAR_GUARDED_BY(m_);
  std::size_t head_ CODAR_GUARDED_BY(m_) = 0;
  std::size_t dead_ CODAR_GUARDED_BY(m_) = 0;  ///< Dead entries in entries_.
  /// Indices into entries_, one per live entry; the rest hold kEmptySlot.
  std::vector<std::uint32_t> slots_ CODAR_GUARDED_BY(m_);
  std::unordered_map<std::uint64_t, Segment> segments_ CODAR_GUARDED_BY(m_);
  std::unique_ptr<common::AppendFile> active_ CODAR_GUARDED_BY(m_);
  std::uint64_t active_seq_ CODAR_GUARDED_BY(m_) = 0;
  std::size_t live_bytes_ CODAR_GUARDED_BY(m_) = 0;
  std::size_t file_bytes_ CODAR_GUARDED_BY(m_) = 0;
  StoreStats counters_ CODAR_GUARDED_BY(m_);
};

}  // namespace codar::store
