#include "codar/store/log_store.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <limits>
#include <utility>

#include "codar/common/crc32c.hpp"
#include "codar/common/expects.hpp"

namespace codar::store {

namespace {

/// Per-segment magic: format name + version byte. A future record-format
/// change bumps the trailing digit, and old stores recover as "foreign
/// magic" (dropped with a warning) instead of being misparsed.
constexpr char kMagic[8] = {'C', 'O', 'D', 'A', 'R', 'S', 'G', '1'};
constexpr std::size_t kMagicBytes = sizeof kMagic;
constexpr std::size_t kHeaderBytes = 8;   ///< u32 len + u32 crc.
constexpr std::size_t kKeyBytes = 24;     ///< 3 × u64.
constexpr char kSegmentPrefix[] = "codar-";
constexpr char kSegmentSuffix[] = ".seg";
/// Sanity cap applied before trusting a length field from disk.
constexpr std::uint32_t kMaxPayloadBytes = 1u << 30;
/// What one refill of a SegmentReader reads. Small on purpose: servers
/// that open their stores at the same time each hold one window.
constexpr std::size_t kWindowBytes = 64u << 10;
/// The index table's free-slot marker. Entry indices stay below it, so the
/// entry vector holds at most kMaxEntries (2^32 − 1) entries.
constexpr std::uint32_t kEmptySlot = std::numeric_limits<std::uint32_t>::max();
constexpr std::size_t kMaxEntries = kEmptySlot;
/// The table's smallest size; it holds at most 3/4 as many live entries as
/// it has slots.
constexpr std::size_t kMinSlots = 16;
/// Recovery's guess at segment bytes per record: a record is at least
/// 32 bytes, and one holding a route report about 200.
constexpr std::uint64_t kReserveBytesPerEntry = 128;

/// The smallest table size that holds `live` entries within the load bound.
std::size_t table_size_for(std::size_t live) {
  std::size_t size = kMinSlots;
  while (live * 4 > size * 3) size *= 2;
  return size;
}

std::size_t record_bytes(std::size_t payload_len) {
  return kHeaderBytes + kKeyBytes + payload_len;
}

std::string segment_name(std::uint64_t seq) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%s%012llu%s", kSegmentPrefix,
                static_cast<unsigned long long>(seq), kSegmentSuffix);
  return buf;
}

/// Sequence number of a `codar-NNNNNNNNNNNN.seg` name, or nullopt.
std::optional<std::uint64_t> parse_segment_name(const std::string& name) {
  const std::size_t prefix = sizeof kSegmentPrefix - 1;
  const std::size_t suffix = sizeof kSegmentSuffix - 1;
  if (name.size() != prefix + 12 + suffix) return std::nullopt;
  if (name.compare(name.size() - suffix, suffix, kSegmentSuffix) != 0) {
    return std::nullopt;
  }
  std::uint64_t seq = 0;
  for (std::size_t i = prefix; i < prefix + 12; ++i) {
    if (name[i] < '0' || name[i] > '9') return std::nullopt;
    seq = seq * 10 + static_cast<std::uint64_t>(name[i] - '0');
  }
  return seq;
}

void put_u32(char* out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out[i] = static_cast<char>((v >> (8 * i)) & 0xff);
  }
}

std::uint32_t get_u32(const char* in) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(static_cast<unsigned char>(in[i]))
         << (8 * i);
  }
  return v;
}

void put_u64(char* out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out[i] = static_cast<char>((v >> (8 * i)) & 0xff);
  }
}

std::uint64_t get_u64(const char* in) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(static_cast<unsigned char>(in[i]))
         << (8 * i);
  }
  return v;
}

void encode_key(char* out, const Fingerprint& fp) {
  put_u64(out, fp.circuit);
  put_u64(out + 8, fp.device);
  put_u64(out + 16, fp.options);
}

Fingerprint decode_key(const char* in) {
  return Fingerprint{get_u64(in), get_u64(in + 8), get_u64(in + 16)};
}

/// Reads one segment front to back through a bounded window: a refill is
/// one pread of up to kWindowBytes, so a scan costs about one syscall per
/// window instead of one or two per record. A span longer than the window
/// is read whole.
class SegmentReader {
 public:
  /// Reads `file`, whose first `end` bytes hold records.
  SegmentReader(const common::RandomReadFile& file, std::uint64_t end)
      : file_(file), end_(end) {}

  /// The `size` bytes at `offset`, or nullptr when they cannot be read.
  /// The view stays valid until the next call.
  const char* view(std::uint64_t offset, std::size_t size) {
    if (offset >= start_ && offset - start_ <= filled_ &&
        size <= filled_ - (offset - start_)) {
      return buf_.data() + (offset - start_);
    }
    // Refill from `offset`: a whole window while the segment holds one, and
    // never less than the span asked for.
    const std::uint64_t left = offset < end_ ? end_ - offset : 0;
    const auto window =
        static_cast<std::size_t>(std::min<std::uint64_t>(left, kWindowBytes));
    std::size_t want = std::max(size, window);
    if (buf_.size() < want) buf_.resize(want);
    filled_ = 0;
    // A window that cannot be read whole (the file shrank, or an I/O
    // error) must not condemn a span that can still be read on its own.
    if (!file_.read_at(offset, want, buf_.data())) {
      if (want == size || !file_.read_at(offset, size, buf_.data())) {
        return nullptr;
      }
      want = size;
    }
    start_ = offset;
    filled_ = want;
    return buf_.data();
  }

 private:
  const common::RandomReadFile& file_;
  const std::uint64_t end_;
  std::string buf_;
  std::uint64_t start_ = 0;  ///< File offset of buf_[0].
  std::size_t filled_ = 0;   ///< Bytes of buf_ read from the file.
};

}  // namespace

std::size_t FingerprintHash::operator()(const Fingerprint& fp) const {
  // The three words are already 64-bit digests, so an odd multiplier per
  // word (to tell the words apart) and a fold of the high half suffice.
  const std::uint64_t h = fp.circuit * 0x9e3779b97f4a7c15ull ^
                          fp.device * 0xc2b2ae3d27d4eb4full ^
                          fp.options * 0x165667b19e3779f9ull;
  return static_cast<std::size_t>(h ^ (h >> 32));
}

std::unique_ptr<LogStore> LogStore::open(const std::string& dir,
                                         LogStoreOptions options) {
  return std::unique_ptr<LogStore>(new LogStore(dir, std::move(options)));
}

LogStore::LogStore(std::string dir, LogStoreOptions options)
    : dir_(std::move(dir)), options_(std::move(options)) {
  common::ensure_directory(dir_);
  lock_ = std::make_unique<common::DirLock>(dir_, "LOCK");
  const common::MutexLock lock(m_);
  slots_.assign(kMinSlots, kEmptySlot);
  recover();
}

LogStore::~LogStore() {
  const common::MutexLock lock(m_);
  if (active_ != nullptr) active_->sync();
}

void LogStore::warn(const std::string& message) const {
  if (options_.log) options_.log(message);
}

void LogStore::recover() {
  // Collect (seq, name) pairs; lexicographic name order == numeric seq
  // order thanks to the zero padding, but sort by parsed seq anyway so a
  // hand-renamed file cannot reorder recovery.
  std::vector<std::pair<std::uint64_t, std::string>> found;
  for (const std::string& name :
       common::list_files_with_prefix(dir_, kSegmentPrefix)) {
    if (const std::optional<std::uint64_t> seq = parse_segment_name(name)) {
      found.emplace_back(*seq, name);
    }
  }
  std::sort(found.begin(), found.end());

  // Reserve the entries up front, one per kReserveBytesPerEntry of segment:
  // growing the vector during the scan would copy it and fault in every
  // outgrown buffer, which cost more than the inserts. A smaller guess only
  // costs growth; a larger one costs address space, not resident pages.
  std::uint64_t segment_bytes = 0;
  for (const auto& [seq, name] : found) {
    segment_bytes += common::file_size(dir_ + "/" + name);
  }
  entries_.reserve(static_cast<std::size_t>(std::min<std::uint64_t>(
      segment_bytes / kReserveBytesPerEntry, kMaxEntries)));

  std::uint64_t max_seq = 0;
  for (const auto& [seq, name] : found) {
    max_seq = std::max(max_seq, seq);
    recover_segment(seq, dir_ + "/" + name);
  }

  // Keep appending to the newest surviving segment while it has room;
  // otherwise (or with no segments at all) start a fresh one.
  const auto newest = segments_.find(max_seq);
  if (newest != segments_.end() &&
      newest->second.bytes < options_.max_segment_bytes) {
    open_active_segment(max_seq);
  } else {
    open_active_segment(max_seq + 1);
  }
  enforce_budget();
  maybe_compact();
}

bool LogStore::recover_segment(std::uint64_t seq, const std::string& path) {
  const std::uint64_t size = common::file_size(path);
  if (size == 0) {
    // A crash between creat() and the first append leaves this behind.
    warn("dropping empty segment file " + path);
    common::remove_file(path);
    ++counters_.corrupt_dropped;
    return false;
  }

  std::unique_ptr<common::RandomReadFile> file;
  try {
    file = std::make_unique<common::RandomReadFile>(path);
  } catch (const std::exception& e) {
    warn(std::string("skipping unreadable segment: ") + e.what());
    ++counters_.corrupt_dropped;
    return false;
  }

  SegmentReader reader(*file, size);
  const char* magic = size < kMagicBytes ? nullptr
                                         : reader.view(0, kMagicBytes);
  if (magic == nullptr || std::memcmp(magic, kMagic, kMagicBytes) != 0) {
    warn("dropping segment with bad magic " + path);
    file.reset();
    common::remove_file(path);
    ++counters_.corrupt_dropped;
    return false;
  }

  std::uint64_t offset = kMagicBytes;
  while (offset < size) {
    const char* record = nullptr;
    std::uint32_t payload_len = 0;
    if (size - offset >= kHeaderBytes) {
      if (const char* header = reader.view(offset, kHeaderBytes)) {
        payload_len = get_u32(header);
        if (payload_len <= kMaxPayloadBytes &&
            size - offset - kHeaderBytes >= kKeyBytes + payload_len) {
          record = reader.view(offset, record_bytes(payload_len));
        }
      }
    }
    if (record != nullptr &&
        common::crc32c(record + kHeaderBytes, kKeyBytes + payload_len) !=
            get_u32(record + 4)) {
      record = nullptr;
    }
    if (record == nullptr) {
      // Torn or corrupted record: everything after it is unreachable
      // (lengths chain), so truncate here and keep the prefix.
      warn("truncating " + path + " at byte " + std::to_string(offset) +
           " (torn or corrupt record; " +
           std::to_string(size - offset) + " bytes dropped)");
      file.reset();
      common::truncate_file(path, offset);
      ++counters_.corrupt_dropped;
      try {
        file = std::make_unique<common::RandomReadFile>(path);
      } catch (const std::exception&) {
        file = nullptr;
      }
      break;
    }
    index_record(decode_key(record + kHeaderBytes), seq, offset, payload_len);
    ++counters_.recovered;
    offset += record_bytes(payload_len);
  }

  if (offset <= kMagicBytes) {
    // Nothing usable beyond the magic; drop the file entirely.
    file.reset();
    common::remove_file(path);
    // Any records indexed from it? None (offset never advanced).
    return false;
  }
  Segment segment;
  segment.path = path;
  segment.bytes = offset;
  segment.reader = std::move(file);
  file_bytes_ += offset;
  segments_.emplace(seq, std::move(segment));
  return true;
}

void LogStore::open_active_segment(std::uint64_t seq) {
  const std::string path = dir_ + "/" + segment_name(seq);
  auto it = segments_.find(seq);
  if (it == segments_.end()) {
    it = segments_.emplace(seq, Segment{path, 0, nullptr}).first;
  }
  active_ = std::make_unique<common::AppendFile>(path);
  active_seq_ = seq;
  if (it->second.bytes == 0) {
    if (!active_->append(kMagic, kMagicBytes)) {
      // append_record retries the header before the segment's first record.
      warn("cannot write segment header to " + path);
      common::truncate_file(path, 0);
    } else {
      it->second.bytes = kMagicBytes;
      file_bytes_ += kMagicBytes;
    }
  }
}

bool LogStore::append_record(const Fingerprint& fp,
                             std::string_view payload) {
  if (segments_.at(active_seq_).bytes >= options_.max_segment_bytes) {
    if (active_ != nullptr) active_->sync();
    open_active_segment(active_seq_ + 1);
  }
  if (segments_.at(active_seq_).bytes == 0 &&
      !append_active(kMagic, kMagicBytes)) {
    warn("cannot write segment header to " + active_->path() +
         "; entry not persisted");
    return false;
  }
  const std::uint64_t offset = segments_.at(active_seq_).bytes;

  std::string record;
  record.resize(record_bytes(payload.size()));
  encode_key(record.data() + kHeaderBytes, fp);
  std::memcpy(record.data() + kHeaderBytes + kKeyBytes, payload.data(),
              payload.size());
  put_u32(record.data(),
          static_cast<std::uint32_t>(payload.size()));
  put_u32(record.data() + 4,
          common::crc32c(record.data() + kHeaderBytes,
                         kKeyBytes + payload.size()));
  if (!append_active(record.data(), record.size())) {
    warn("append to " + active_->path() + " failed; entry not persisted");
    return false;
  }
  if (options_.sync_every_append) active_->sync();
  index_record(fp, active_seq_, offset,
               static_cast<std::uint32_t>(payload.size()));
  return true;
}

bool LogStore::append_active(const char* data, std::size_t size) {
  Segment& segment = segments_.at(active_seq_);
  if (active_->append(data, size)) {
    segment.bytes += size;
    file_bytes_ += size;
    return true;
  }
  // The write may have left part of `data` in the file, and the next record
  // is indexed at the recorded size: cut the torn bytes off, or, when that
  // fails, leave them for the next open to truncate and append elsewhere.
  if (!common::truncate_file(segment.path, segment.bytes)) {
    warn("cannot cut " + segment.path + " back to " +
         std::to_string(segment.bytes) + " bytes; starting a new segment");
    open_active_segment(active_seq_ + 1);
  }
  return false;
}

void LogStore::index_record(const Fingerprint& fp, std::uint64_t segment,
                            std::uint64_t offset,
                            std::uint32_t payload_len) {
  if (entries_.size() == kMaxEntries) {
    // 32-bit entry indices: make room rather than wrap, evicting the oldest
    // entry when none is dead. Each append at the cap pays for a squeeze.
    if (dead_ == 0) evict_oldest();
    squeeze();
  }
  if ((live_entries() + 1) * 4 > slots_.size() * 3) {
    rebuild_table(slots_.size() * 2);
  }
  const std::size_t slot = find_slot(fp);
  // Superseded: the old record's bytes become dead weight.
  if (slots_[slot] != kEmptySlot) retire(slots_[slot]);
  slots_[slot] = static_cast<std::uint32_t>(entries_.size());
  entries_.push_back(Entry{fp, segment, offset, payload_len, true});
  live_bytes_ += record_bytes(payload_len);
  if (dead_ > live_entries()) squeeze();
}

std::size_t LogStore::find_slot(const Fingerprint& fp) const {
  const std::size_t mask = slots_.size() - 1;
  // The load bound keeps a slot free, so every probe chain ends.
  for (std::size_t i = FingerprintHash{}(fp) & mask;; i = (i + 1) & mask) {
    const std::uint32_t entry = slots_[i];
    if (entry == kEmptySlot || entries_[entry].key == fp) return i;
  }
}

void LogStore::erase_slot(std::size_t hole) {
  const std::size_t mask = slots_.size() - 1;
  for (std::size_t i = (hole + 1) & mask; slots_[i] != kEmptySlot;
       i = (i + 1) & mask) {
    // The entry at i may fill the hole unless its home slot lies
    // cyclically in (hole, i]: it would then be probed for past the hole.
    const std::size_t home = FingerprintHash{}(entries_[slots_[i]].key) & mask;
    if (((i - home) & mask) >= ((i - hole) & mask)) {
      slots_[hole] = slots_[i];
      hole = i;
    }
  }
  slots_[hole] = kEmptySlot;
}

void LogStore::rebuild_table(std::size_t size) {
  slots_.assign(size, kEmptySlot);
  const std::size_t mask = size - 1;
  for (std::size_t e = head_; e < entries_.size(); ++e) {
    if (!entries_[e].live) continue;
    std::size_t i = FingerprintHash{}(entries_[e].key) & mask;
    while (slots_[i] != kEmptySlot) i = (i + 1) & mask;
    slots_[i] = static_cast<std::uint32_t>(e);
  }
}

void LogStore::retire(std::size_t entry) {
  entries_[entry].live = false;
  ++dead_;
  live_bytes_ -= record_bytes(entries_[entry].payload_len);
}

void LogStore::evict_oldest() {
  while (!entries_[head_].live) ++head_;
  erase_slot(find_slot(entries_[head_].key));
  retire(head_);
  ++counters_.evictions;
}

void LogStore::squeeze() {
  std::erase_if(entries_, [](const Entry& e) { return !e.live; });
  dead_ = 0;
  head_ = 0;
  rebuild_table(table_size_for(entries_.size()));
}

void LogStore::enforce_budget() {
  if (options_.max_total_bytes == 0) return;
  while (live_bytes_ > options_.max_total_bytes && live_entries() > 0) {
    evict_oldest();
    if (dead_ > live_entries()) squeeze();
  }
}

void LogStore::maybe_compact() {
  if (file_bytes_ <= live_bytes_) return;
  const std::size_t dead = file_bytes_ - live_bytes_;
  // Compact once the dead fraction crosses the threshold — but only when
  // there is at least a segment's worth of data on disk, so a tiny store
  // does not churn through rewrites.
  if (file_bytes_ < options_.max_segment_bytes) return;
  if (static_cast<double>(dead) <
      options_.compact_waste_ratio * static_cast<double>(file_bytes_)) {
    return;
  }
  compact_locked();
}

std::size_t LogStore::compact() {
  const common::MutexLock lock(m_);
  return compact_locked();
}

std::size_t LogStore::compact_locked() {
  const std::size_t before = file_bytes_;

  // Take the live entries (locations only — payloads stream through one at
  // a time below) in append order, then rebuild from scratch into fresh
  // segments numbered after every existing one.
  std::vector<Entry> live = std::move(entries_);
  std::erase_if(live, [](const Entry& e) { return !e.live; });

  std::vector<std::pair<std::uint64_t, std::string>> old_files;
  for (const auto& [seq, segment] : segments_) {
    old_files.emplace_back(seq, segment.path);
  }

  entries_.clear();
  entries_.reserve(live.size());
  head_ = 0;
  dead_ = 0;
  rebuild_table(table_size_for(live.size()));
  live_bytes_ = 0;
  if (active_ != nullptr) active_->sync();
  active_.reset();

  std::uint64_t next_seq = 1;
  for (const auto& [seq, path] : old_files) {
    next_seq = std::max(next_seq, seq + 1);
  }

  // Old segments stay readable (their Segment entries and readers live in
  // segments_ until the loop below erases them) while records stream into
  // the new active segment.
  open_active_segment(next_seq);
  std::string payload;
  for (const Entry& entry : live) {
    if (!read_payload(entry, &payload)) {
      warn("compaction: skipping unreadable record");
      continue;
    }
    append_record(entry.key, payload);
  }
  if (active_ != nullptr) active_->sync();

  for (const auto& [seq, path] : old_files) {
    const auto it = segments_.find(seq);
    if (it == segments_.end()) continue;
    file_bytes_ -= it->second.bytes;
    segments_.erase(it);
    common::remove_file(path);
  }
  ++counters_.compactions;
  return before > file_bytes_ ? before - file_bytes_ : 0;
}

common::RandomReadFile* LogStore::reader_for(std::uint64_t segment) const {
  const auto it = segments_.find(segment);
  if (it == segments_.end()) return nullptr;
  if (it->second.reader == nullptr) {
    try {
      it->second.reader =
          std::make_unique<common::RandomReadFile>(it->second.path);
    } catch (const std::exception& e) {
      warn(std::string("cannot reopen segment: ") + e.what());
      return nullptr;
    }
  }
  return it->second.reader.get();
}

bool LogStore::read_payload(const Entry& entry, std::string* payload) const {
  common::RandomReadFile* file = reader_for(entry.segment);
  if (file == nullptr) return false;
  std::string record;
  record.resize(record_bytes(entry.payload_len));
  return file->read_at(entry.offset, record.size(), record.data()) &&
         verified_payload(record.data(), entry, payload);
}

bool LogStore::verified_payload(const char* record, const Entry& entry,
                                std::string* payload) const {
  // Re-verify the header and CRC: bit rot between open() and now must
  // surface as a miss (re-route), not a wrong answer.
  if (get_u32(record) != entry.payload_len) return false;
  if (common::crc32c(record + kHeaderBytes, kKeyBytes + entry.payload_len) !=
      get_u32(record + 4)) {
    warn("CRC mismatch reading record (bit rot?); treating as miss");
    return false;
  }
  payload->assign(record + kHeaderBytes + kKeyBytes, entry.payload_len);
  return true;
}

bool LogStore::get(const Fingerprint& fp, std::string* payload) const {
  const common::MutexLock lock(m_);
  const std::uint32_t entry = slots_[find_slot(fp)];
  return entry != kEmptySlot && read_payload(entries_[entry], payload);
}

bool LogStore::put(const Fingerprint& fp, std::string_view payload) {
  const common::MutexLock lock(m_);
  if (options_.max_total_bytes != 0 &&
      record_bytes(payload.size()) > options_.max_total_bytes) {
    // Admitting it would immediately flush the whole store.
    ++counters_.evictions;
    return true;
  }
  if (!append_record(fp, payload)) return false;
  ++counters_.appends;
  enforce_budget();
  maybe_compact();
  return true;
}

std::vector<std::pair<Fingerprint, std::string>> LogStore::recent_entries(
    std::size_t n) const {
  const common::MutexLock lock(m_);
  // The newest n live entries, emitted oldest-first: replaying them through
  // an LRU leaves the hottest (most recently appended) most recently used.
  std::size_t first = entries_.size();
  for (std::size_t taken = 0; taken < n && first > head_;) {
    if (entries_[--first].live) ++taken;
  }
  std::vector<std::pair<Fingerprint, std::string>> out;
  out.reserve(std::min(n, live_entries()));
  // Append order is ascending (segment, offset), so one forward reader per
  // segment reads the entries a window at a time.
  std::optional<SegmentReader> reader;
  std::uint64_t reader_segment = 0;
  for (std::size_t e = first; e < entries_.size(); ++e) {
    const Entry& entry = entries_[e];
    if (!entry.live) continue;
    if (!reader || reader_segment != entry.segment) {
      reader.reset();
      const common::RandomReadFile* file = reader_for(entry.segment);
      if (file == nullptr) continue;
      reader.emplace(*file, segments_.at(entry.segment).bytes);
      reader_segment = entry.segment;
    }
    const char* record =
        reader->view(entry.offset, record_bytes(entry.payload_len));
    std::string payload;
    if (record != nullptr && verified_payload(record, entry, &payload)) {
      out.emplace_back(entry.key, std::move(payload));
    }
  }
  return out;
}

StoreStats LogStore::stats() const {
  const common::MutexLock lock(m_);
  StoreStats s = counters_;
  s.entries = live_entries();
  s.live_bytes = live_bytes_;
  s.file_bytes = file_bytes_;
  s.segments = segments_.size();
  return s;
}

}  // namespace codar::store
