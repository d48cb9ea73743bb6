// LogStore tests: append/get round-trips, last-write-wins supersession,
// crash recovery (torn tails, bit flips, zero-length and foreign files),
// segment rotation, budget eviction, compaction, warm-start ordering and
// the directory lock. Corruption scenarios write real damage into real
// segment files — the loader must degrade record-by-record, never refuse
// to start. Recovery and warm-start read segments through a 64 KiB
// window, so the later tests put records and damage across its edges. A
// write that fails halfway is provoked with a lowered RLIMIT_FSIZE.

#include "codar/store/log_store.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <csignal>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <random>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

namespace codar::store {
namespace {

namespace fs = std::filesystem;

Fingerprint fp(std::uint64_t i) { return Fingerprint{i, i * 31, i * 131}; }

// The segment layout (log_store.hpp) and the scan's read window
// (log_store.cpp), which the window tests place records against.
constexpr std::uint64_t kMagicBytes = 8;
constexpr std::uint64_t kRecordOverhead = 8 + 24;  // header + key
constexpr std::uint64_t kWindow = 64 * 1024;

/// `len` pseudo-random bytes, distinct per key, so a record read from the
/// wrong offset cannot pass a byte-for-byte check.
std::string payload_for(std::uint64_t key, std::size_t len) {
  std::string p(len, '\0');
  std::uint64_t x = key * 0x9e3779b97f4a7c15ull + 1;
  for (char& c : p) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    c = static_cast<char>(x);
  }
  return p;
}

/// Where records with payloads of `lens` start in one segment, in order,
/// followed by the segment's end.
std::vector<std::uint64_t> record_offsets(
    const std::vector<std::size_t>& lens) {
  std::vector<std::uint64_t> offsets{kMagicBytes};
  for (const std::size_t len : lens) {
    offsets.push_back(offsets.back() + kRecordOverhead + len);
  }
  return offsets;
}

std::string read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void write_file(const fs::path& path, std::string_view bytes) {
  std::ofstream(path, std::ios::binary | std::ios::trunc)
      .write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

void flip_byte(const fs::path& path, std::uint64_t offset) {
  std::string bytes = read_file(path);
  bytes[offset] = static_cast<char>(bytes[offset] ^ 0x40);
  write_file(path, bytes);
}

/// Lowers this process's soft file-size limit to `bytes`, with SIGXFSZ
/// ignored so that a write past it fails (EFBIG) instead of killing the
/// process; restores both on destruction.
class FileSizeLimit {
 public:
  explicit FileSizeLimit(rlim_t bytes)
      : old_handler_(std::signal(SIGXFSZ, SIG_IGN)) {
    if (::getrlimit(RLIMIT_FSIZE, &old_) != 0) return;
    rlimit lowered = old_;
    lowered.rlim_cur = bytes;
    ok_ = ::setrlimit(RLIMIT_FSIZE, &lowered) == 0;
  }
  ~FileSizeLimit() {
    if (ok_) ::setrlimit(RLIMIT_FSIZE, &old_);
    std::signal(SIGXFSZ, old_handler_);
  }
  FileSizeLimit(const FileSizeLimit&) = delete;
  FileSizeLimit& operator=(const FileSizeLimit&) = delete;

  bool ok() const { return ok_; }

 private:
  rlimit old_{};
  void (*old_handler_)(int);
  bool ok_ = false;
};

class LogStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::path(testing::TempDir()) /
           ("codar_log_store_" +
            std::string(
                ::testing::UnitTest::GetInstance()->current_test_info()->name()));
    fs::remove_all(dir_);
  }
  void TearDown() override {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  std::unique_ptr<LogStore> open(LogStoreOptions options = {}) {
    options.log = [this](const std::string& msg) { warnings_.push_back(msg); };
    return LogStore::open(dir_.string(), std::move(options));
  }

  std::vector<fs::path> segment_files() const {
    std::vector<fs::path> files;
    for (const auto& entry : fs::directory_iterator(dir_)) {
      if (entry.path().extension() == ".seg") files.push_back(entry.path());
    }
    std::sort(files.begin(), files.end());
    return files;
  }

  /// Puts key i with payload_for(i, lens[i]) for each i, in order.
  void put_all(LogStore& store, const std::vector<std::size_t>& lens) {
    for (std::size_t i = 0; i < lens.size(); ++i) {
      ASSERT_TRUE(store.put(fp(i), payload_for(i, lens[i]))) << i;
    }
  }

  /// Keys [0, kept) read back byte for byte; keys [kept, total) are absent.
  void expect_prefix(const LogStore& store,
                     const std::vector<std::size_t>& lens, std::size_t kept) {
    for (std::size_t i = 0; i < lens.size(); ++i) {
      std::string payload;
      if (i < kept) {
        ASSERT_TRUE(store.get(fp(i), &payload)) << "key " << i;
        EXPECT_EQ(payload, payload_for(i, lens[i])) << "key " << i;
      } else {
        EXPECT_FALSE(store.get(fp(i), &payload)) << "key " << i;
      }
    }
  }

  fs::path dir_;
  std::vector<std::string> warnings_;
};

TEST_F(LogStoreTest, PutGetRoundTrip) {
  auto store = open();
  EXPECT_TRUE(store->put(fp(1), "alpha"));
  EXPECT_TRUE(store->put(fp(2), std::string("\x00\xff\x7f", 3)));

  std::string payload;
  ASSERT_TRUE(store->get(fp(1), &payload));
  EXPECT_EQ(payload, "alpha");
  ASSERT_TRUE(store->get(fp(2), &payload));
  EXPECT_EQ(payload, std::string("\x00\xff\x7f", 3));
  EXPECT_FALSE(store->get(fp(3), &payload));

  const StoreStats s = store->stats();
  EXPECT_EQ(s.entries, 2u);
  EXPECT_EQ(s.appends, 2u);
  EXPECT_EQ(s.segments, 1u);
}

TEST_F(LogStoreTest, LastWriteWins) {
  auto store = open();
  store->put(fp(1), "old");
  store->put(fp(1), "new");
  std::string payload;
  ASSERT_TRUE(store->get(fp(1), &payload));
  EXPECT_EQ(payload, "new");
  const StoreStats s = store->stats();
  EXPECT_EQ(s.entries, 1u);
  // The superseded record's bytes are dead weight on disk until compaction.
  EXPECT_GT(s.file_bytes, s.live_bytes);
}

TEST_F(LogStoreTest, ReopenRecoversEverything) {
  {
    auto store = open();
    for (std::uint64_t i = 0; i < 50; ++i) {
      store->put(fp(i), "payload_" + std::to_string(i));
    }
  }
  auto store = open();
  EXPECT_EQ(store->stats().entries, 50u);
  EXPECT_EQ(store->stats().recovered, 50u);
  for (std::uint64_t i = 0; i < 50; ++i) {
    std::string payload;
    ASSERT_TRUE(store->get(fp(i), &payload)) << i;
    EXPECT_EQ(payload, "payload_" + std::to_string(i));
  }
  EXPECT_TRUE(warnings_.empty());
}

TEST_F(LogStoreTest, TornTailIsTruncatedNotFatal) {
  {
    auto store = open();
    store->put(fp(1), "first");
    store->put(fp(2), "second");
  }
  // Simulate a power cut mid-append: chop the last record in half.
  const std::vector<fs::path> files = segment_files();
  ASSERT_EQ(files.size(), 1u);
  const std::uintmax_t size = fs::file_size(files[0]);
  fs::resize_file(files[0], size - 3);

  auto store = open();
  std::string payload;
  ASSERT_TRUE(store->get(fp(1), &payload));
  EXPECT_EQ(payload, "first");
  EXPECT_FALSE(store->get(fp(2), &payload));  // torn away
  EXPECT_EQ(store->stats().entries, 1u);
  EXPECT_FALSE(warnings_.empty());

  // The truncated store keeps working: the lost key can be re-appended
  // and survives the next reopen.
  store->put(fp(2), "second_again");
  store.reset();
  store = open();
  ASSERT_TRUE(store->get(fp(2), &payload));
  EXPECT_EQ(payload, "second_again");
}

TEST_F(LogStoreTest, BitFlipDropsTheRecordAndItsSuccessors) {
  {
    auto store = open();
    store->put(fp(1), "aaaaaaaaaa");
    store->put(fp(2), "bbbbbbbbbb");
  }
  const std::vector<fs::path> files = segment_files();
  ASSERT_EQ(files.size(), 1u);
  // Flip one payload byte of the FIRST record (just past magic + header +
  // key); the CRC catches it, and the scan cannot trust anything after an
  // unverifiable record boundary.
  {
    std::fstream f(files[0],
                   std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(8 + 4 + 4 + 24 + 2);
    char byte = 0;
    f.seekg(8 + 4 + 4 + 24 + 2);
    f.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x40);
    f.seekp(8 + 4 + 4 + 24 + 2);
    f.write(&byte, 1);
  }
  auto store = open();
  std::string payload;
  EXPECT_FALSE(store->get(fp(1), &payload));
  EXPECT_EQ(store->stats().entries, 0u);
  EXPECT_GE(store->stats().corrupt_dropped, 1u);
  EXPECT_FALSE(warnings_.empty());
}

TEST_F(LogStoreTest, ZeroLengthAndForeignSegmentsAreSkipped) {
  {
    auto store = open();
    store->put(fp(1), "keep");
  }
  // A zero-length segment (crash between create and magic) and a file with
  // someone else's magic must both be discarded without aborting startup.
  std::ofstream(dir_ / "codar-000000009998.seg").flush();
  std::ofstream(dir_ / "codar-000000009999.seg") << "NOTCODAR garbage";

  auto store = open();
  std::string payload;
  ASSERT_TRUE(store->get(fp(1), &payload));
  EXPECT_EQ(payload, "keep");
  EXPECT_GE(store->stats().corrupt_dropped, 2u);
  EXPECT_GE(warnings_.size(), 2u);
}

TEST_F(LogStoreTest, RotationSpansSegments) {
  LogStoreOptions options;
  options.max_segment_bytes = 256;  // a few records per segment
  {
    auto store = open(options);
    for (std::uint64_t i = 0; i < 20; ++i) {
      store->put(fp(i), std::string(64, static_cast<char>('a' + i % 26)));
    }
    EXPECT_GT(store->stats().segments, 1u);
  }
  EXPECT_GT(segment_files().size(), 1u);
  // Recovery walks all of them.
  auto store = open(options);
  EXPECT_EQ(store->stats().entries, 20u);
  for (std::uint64_t i = 0; i < 20; ++i) {
    std::string payload;
    ASSERT_TRUE(store->get(fp(i), &payload)) << i;
  }
}

TEST_F(LogStoreTest, BudgetEvictsOldestFirst) {
  LogStoreOptions options;
  options.max_total_bytes = 400;
  auto store = open(options);
  for (std::uint64_t i = 0; i < 10; ++i) {
    store->put(fp(i), std::string(64, 'x'));
  }
  const StoreStats s = store->stats();
  EXPECT_GT(s.evictions, 0u);
  EXPECT_LE(s.live_bytes, 400u);
  // The newest keys survive; the oldest were evicted.
  std::string payload;
  EXPECT_TRUE(store->get(fp(9), &payload));
  EXPECT_FALSE(store->get(fp(0), &payload));
}

TEST_F(LogStoreTest, OversizedPayloadIsRejectedNotAdmitted) {
  LogStoreOptions options;
  options.max_total_bytes = 128;
  auto store = open(options);
  store->put(fp(1), "small");
  EXPECT_TRUE(store->put(fp(2), std::string(4096, 'x')));  // not an I/O error
  std::string payload;
  EXPECT_FALSE(store->get(fp(2), &payload));  // ... but not stored either
  EXPECT_TRUE(store->get(fp(1), &payload));   // and it flushed nothing
  EXPECT_GE(store->stats().evictions, 1u);
}

TEST_F(LogStoreTest, CompactionDropsDeadBytesAndPreservesLiveData) {
  LogStoreOptions options;
  options.max_segment_bytes = 512;
  auto store = open(options);
  // Overwrite the same small key set many times: most bytes on disk die.
  for (int round = 0; round < 20; ++round) {
    for (std::uint64_t i = 0; i < 4; ++i) {
      store->put(fp(i), "round_" + std::to_string(round) + "_" +
                            std::to_string(i));
    }
  }
  const StoreStats before = store->stats();
  const std::size_t reclaimed = store->compact();
  const StoreStats after = store->stats();
  EXPECT_GT(reclaimed, 0u);
  EXPECT_LT(after.file_bytes, before.file_bytes);
  EXPECT_EQ(after.entries, 4u);
  for (std::uint64_t i = 0; i < 4; ++i) {
    std::string payload;
    ASSERT_TRUE(store->get(fp(i), &payload));
    EXPECT_EQ(payload, "round_19_" + std::to_string(i));
  }
  // The compacted layout must survive a reopen (file set and index agree).
  store.reset();
  store = open(options);
  EXPECT_EQ(store->stats().entries, 4u);
  std::string payload;
  ASSERT_TRUE(store->get(fp(2), &payload));
  EXPECT_EQ(payload, "round_19_2");
}

TEST_F(LogStoreTest, CompactionTriggersAutomaticallyOnWasteRatio) {
  LogStoreOptions options;
  options.max_segment_bytes = 256;
  options.compact_waste_ratio = 0.5;
  auto store = open(options);
  for (int round = 0; round < 50; ++round) {
    store->put(fp(1), std::string(64, static_cast<char>('a' + round % 26)));
  }
  EXPECT_GT(store->stats().compactions, 0u);
  // Despite 50 appends of 64-byte payloads, disk stays near one record.
  EXPECT_LT(store->stats().file_bytes, 50u * 64u / 2);
}

TEST_F(LogStoreTest, RecentEntriesFeedWarmStartOldestToNewest) {
  auto store = open();
  for (std::uint64_t i = 0; i < 6; ++i) {
    store->put(fp(i), "p" + std::to_string(i));
  }
  // Re-touching key 1 moves it to the newest end.
  store->put(fp(1), "p1b");

  const auto entries = store->recent_entries(3);
  ASSERT_EQ(entries.size(), 3u);
  EXPECT_EQ(entries[0].first, fp(4));
  EXPECT_EQ(entries[1].first, fp(5));
  EXPECT_EQ(entries[2].first, fp(1));  // newest last
  EXPECT_EQ(entries[2].second, "p1b");

  // Asking for more than exists returns everything.
  EXPECT_EQ(store->recent_entries(100).size(), 6u);
}

TEST_F(LogStoreTest, RecordStraddlingTheWindowEdgeIsRecovered) {
  // 1000-byte payloads: record 63 spans [65024, 66056), across the first
  // window's end.
  const std::vector<std::size_t> lens(100, 1000);
  const std::vector<std::uint64_t> offsets = record_offsets(lens);
  ASSERT_LT(offsets[63], kWindow);
  ASSERT_GT(offsets[64], kWindow);
  {
    auto store = open();
    put_all(*store, lens);
  }
  {
    auto store = open();
    EXPECT_EQ(store->stats().recovered, lens.size());
    expect_prefix(*store, lens, lens.size());
  }
  EXPECT_TRUE(warnings_.empty());

  // A flipped payload byte past the window edge condemns that record.
  const std::vector<fs::path> files = segment_files();
  ASSERT_EQ(files.size(), 1u);
  flip_byte(files[0], kWindow + 100);
  auto store = open();
  EXPECT_EQ(store->stats().recovered, 63u);
  EXPECT_EQ(store->stats().corrupt_dropped, 1u);
  expect_prefix(*store, lens, 63);
  EXPECT_EQ(fs::file_size(files[0]), offsets[63]);
}

TEST_F(LogStoreTest, RecordLongerThanTheWindowIsReadWhole) {
  const std::vector<std::size_t> lens = {100, 3 * kWindow + 5, 7,
                                         kWindow - kRecordOverhead, 2000};
  {
    auto store = open();
    put_all(*store, lens);
  }
  auto store = open();
  EXPECT_EQ(store->stats().recovered, lens.size());
  EXPECT_EQ(store->stats().corrupt_dropped, 0u);
  expect_prefix(*store, lens, lens.size());
  const auto entries = store->recent_entries(lens.size());
  ASSERT_EQ(entries.size(), lens.size());
  for (std::size_t i = 0; i < lens.size(); ++i) {
    EXPECT_EQ(entries[i].first, fp(i));
    EXPECT_EQ(entries[i].second, payload_for(i, lens[i]));
  }
  EXPECT_TRUE(warnings_.empty());
}

TEST_F(LogStoreTest, TornTailPastTheFirstWindowKeepsEveryEarlierRecord) {
  const std::vector<std::size_t> lens(150, 1000);  // ~150 KB, three windows
  const std::vector<std::uint64_t> offsets = record_offsets(lens);
  {
    auto store = open();
    put_all(*store, lens);
  }
  const std::vector<fs::path> files = segment_files();
  ASSERT_EQ(files.size(), 1u);
  fs::resize_file(files[0], offsets.back() - 3);

  auto store = open();
  EXPECT_EQ(store->stats().recovered, lens.size() - 1);
  EXPECT_EQ(store->stats().corrupt_dropped, 1u);
  expect_prefix(*store, lens, lens.size() - 1);
  EXPECT_EQ(fs::file_size(files[0]), offsets[lens.size() - 1]);
  ASSERT_EQ(warnings_.size(), 1u);
  EXPECT_NE(warnings_[0].find("at byte " +
                              std::to_string(offsets[lens.size() - 1])),
            std::string::npos)
      << warnings_[0];
}

TEST_F(LogStoreTest, BitFlipPastTheFirstWindowKeepsThePrefix) {
  const std::vector<std::size_t> lens(150, 1000);
  const std::vector<std::uint64_t> offsets = record_offsets(lens);
  ASSERT_GT(offsets[140], 2 * kWindow);
  {
    auto store = open();
    put_all(*store, lens);
  }
  const std::vector<fs::path> files = segment_files();
  ASSERT_EQ(files.size(), 1u);
  flip_byte(files[0], offsets[140] + kRecordOverhead + 500);

  auto store = open();
  EXPECT_EQ(store->stats().recovered, 140u);
  EXPECT_EQ(store->stats().corrupt_dropped, 1u);
  expect_prefix(*store, lens, 140);
  EXPECT_EQ(fs::file_size(files[0]), offsets[140]);
}

TEST_F(LogStoreTest, RecoveryWalksTwoSegmentsAndKeepsTheNewestWrite) {
  LogStoreOptions options;
  options.max_segment_bytes = 100 * 1024;  // each segment spans windows
  const std::vector<std::size_t> lens(180, 1000);
  StoreStats before;
  {
    auto store = open(options);
    put_all(*store, lens);
    // Supersede every tenth key of the first segment from the second.
    for (std::uint64_t i = 0; i < 90; i += 10) {
      ASSERT_TRUE(store->put(fp(i), payload_for(i + 1000, 700 + i)));
    }
    before = store->stats();
  }
  ASSERT_EQ(segment_files().size(), 2u);

  auto store = open(options);
  const StoreStats after = store->stats();
  EXPECT_EQ(after.recovered, lens.size() + 9);
  EXPECT_EQ(after.entries, before.entries);
  EXPECT_EQ(after.live_bytes, before.live_bytes);
  EXPECT_EQ(after.file_bytes, before.file_bytes);
  for (std::uint64_t i = 0; i < lens.size(); ++i) {
    std::string payload;
    ASSERT_TRUE(store->get(fp(i), &payload)) << i;
    EXPECT_EQ(payload, i < 90 && i % 10 == 0 ? payload_for(i + 1000, 700 + i)
                                             : payload_for(i, lens[i]))
        << i;
  }
  EXPECT_TRUE(warnings_.empty());
}

TEST_F(LogStoreTest, RecentEntriesKeepAppendOrderAcrossSegments) {
  LogStoreOptions options;
  options.max_segment_bytes = 96 * 1024;
  std::mt19937_64 rng(24);
  // The model: (key, payload) in the order of each key's newest write.
  std::vector<std::pair<Fingerprint, std::string>> want;
  const auto write = [&](LogStore& store, std::uint64_t key,
                         std::string payload) {
    ASSERT_TRUE(store.put(fp(key), payload));
    std::erase_if(want, [&](const auto& e) { return e.first == fp(key); });
    want.emplace_back(fp(key), std::move(payload));
  };
  {
    auto store = open(options);
    for (std::uint64_t i = 0; i < 150; ++i) {
      write(*store, i, payload_for(i, rng() % 3000));
    }
    for (std::uint64_t i = 3; i < 150; i += 7) {
      write(*store, i, payload_for(i + 500, rng() % 3000));
    }
    ASSERT_GE(store->stats().segments, 3u);
    EXPECT_EQ(store->recent_entries(want.size()), want);
  }
  auto store = open(options);
  EXPECT_EQ(store->recent_entries(want.size() + 10), want);
  const auto newest = store->recent_entries(40);
  EXPECT_TRUE(std::equal(newest.begin(), newest.end(), want.end() - 40,
                         want.end()));
  EXPECT_TRUE(warnings_.empty());
}

TEST_F(LogStoreTest, RecentEntriesReadRecordsWhoseWindowIsCutShort) {
  // The file loses its last record's tail while the store is open: the
  // window reads covering it fail, and every whole record must still be
  // read on its own.
  const std::vector<std::size_t> lens(100, 1000);
  const std::vector<std::uint64_t> offsets = record_offsets(lens);
  auto store = open();
  put_all(*store, lens);
  const std::vector<fs::path> files = segment_files();
  ASSERT_EQ(files.size(), 1u);
  fs::resize_file(files[0], offsets.back() - 10);

  const auto entries = store->recent_entries(lens.size());
  ASSERT_EQ(entries.size(), lens.size() - 1);
  for (std::size_t i = 0; i + 1 < lens.size(); ++i) {
    EXPECT_EQ(entries[i].first, fp(i));
    EXPECT_EQ(entries[i].second, payload_for(i, lens[i]));
  }
}

TEST_F(LogStoreTest, TruncationSweepKeepsExactlyTheIntactPrefix) {
  // A ~200 KB segment of seeded record sizes, one longer than the window,
  // cut near every record boundary, near every window edge and at seeded
  // offsets elsewhere. Each cut must open, keep exactly the records that
  // end at or before it, and read every one of them back.
  std::mt19937_64 rng(2024);
  std::vector<std::size_t> lens;
  for (int i = 0; i < 90; ++i) lens.push_back(rng() % 3000);
  lens[45] = kWindow + 4321;
  const std::vector<std::uint64_t> offsets = record_offsets(lens);
  {
    auto store = open();
    put_all(*store, lens);
  }
  const std::vector<fs::path> files = segment_files();
  ASSERT_EQ(files.size(), 1u);
  const std::string pristine = read_file(files[0]);
  ASSERT_EQ(pristine.size(), offsets.back());

  std::vector<std::uint64_t> cuts;
  const auto near = [&](std::uint64_t at) {
    // The byte before, at, and one past the start of the header, the key
    // and the payload.
    if (at > 0) cuts.push_back(at - 1);
    for (const std::uint64_t d : {0, 1, 9, 33}) cuts.push_back(at + d);
  };
  for (const std::uint64_t offset : offsets) near(offset);
  for (std::uint64_t w = kWindow; w < pristine.size(); w += kWindow) near(w);
  // Where refills start: at the first record that overruns the window.
  std::uint64_t window_end = kWindow;
  for (std::size_t i = 0; i < lens.size(); ++i) {
    if (offsets[i + 1] > window_end) {
      window_end = offsets[i] + std::max(kWindow, offsets[i + 1] - offsets[i]);
      near(window_end);
    }
  }
  for (int i = 0; i < 150; ++i) cuts.push_back(rng() % pristine.size());
  std::sort(cuts.begin(), cuts.end());
  cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());
  std::erase_if(cuts, [&](std::uint64_t c) { return c > pristine.size(); });

  for (const std::uint64_t cut : cuts) {
    SCOPED_TRACE("cut at byte " + std::to_string(cut));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
    write_file(files[0], std::string_view(pristine).substr(0, cut));
    // Records [0, kept) end at or before the cut.
    const std::size_t kept = static_cast<std::size_t>(
        std::upper_bound(offsets.begin() + 1, offsets.end(), cut) -
        (offsets.begin() + 1));
    std::unique_ptr<LogStore> store;
    ASSERT_NO_THROW(store = open());
    EXPECT_EQ(store->stats().recovered, kept);
    EXPECT_EQ(store->stats().entries, kept);
    expect_prefix(*store, lens, kept);
    if (kept > 0) {
      EXPECT_EQ(fs::file_size(files[0]), offsets[kept]);
      EXPECT_EQ(store->stats().corrupt_dropped, cut == offsets[kept] ? 0u : 1u);
    }
    if (::testing::Test::HasFailure()) break;
  }
}

TEST_F(LogStoreTest, FailedAppendIsCutBackSoLaterRecordsStayReadable) {
  auto store = open();
  ASSERT_TRUE(store->put(fp(0), payload_for(0, 100)));
  const fs::path segment = segment_files().at(0);
  const std::uint64_t size = fs::file_size(segment);
  ASSERT_EQ(size, record_offsets({100}).back());

  // The next record (132 bytes) gets 50 bytes into the file, then the
  // write fails.
  bool torn_put = true;
  {
    const FileSizeLimit limit(size + 50);
    ASSERT_TRUE(limit.ok());
    torn_put = store->put(fp(1), payload_for(1, 100));
  }
  EXPECT_FALSE(torn_put);
  EXPECT_EQ(fs::file_size(segment), size);

  // The record after it lands where the store indexes it.
  ASSERT_TRUE(store->put(fp(2), payload_for(2, 100)));
  std::string payload;
  EXPECT_FALSE(store->get(fp(1), &payload));
  ASSERT_TRUE(store->get(fp(2), &payload));
  EXPECT_EQ(payload, payload_for(2, 100));

  // ... and a reopen keeps every record put() reported as stored.
  store.reset();
  store = open();
  EXPECT_EQ(store->stats().entries, 2u);
  EXPECT_EQ(store->stats().corrupt_dropped, 0u);
  ASSERT_TRUE(store->get(fp(0), &payload));
  EXPECT_EQ(payload, payload_for(0, 100));
  ASSERT_TRUE(store->get(fp(2), &payload));
  EXPECT_EQ(payload, payload_for(2, 100));
}

TEST_F(LogStoreTest, FailedAppendThatCannotBeCutMovesToAFreshSegment) {
  auto store = open();
  ASSERT_TRUE(store->put(fp(0), payload_for(0, 100)));
  const fs::path segment = segment_files().at(0);
  const std::uint64_t size = fs::file_size(segment);

  // Renamed away, the segment cannot be cut back by its path, while the
  // store's open descriptor still appends to it.
  const fs::path aside = dir_ / "aside";
  fs::rename(segment, aside);
  bool torn_put = true;
  {
    const FileSizeLimit limit(size + 50);
    ASSERT_TRUE(limit.ok());
    torn_put = store->put(fp(1), payload_for(1, 100));
  }
  EXPECT_FALSE(torn_put);
  fs::rename(aside, segment);

  ASSERT_TRUE(store->put(fp(2), payload_for(2, 100)));
  std::string payload;
  ASSERT_TRUE(store->get(fp(2), &payload));
  EXPECT_EQ(payload, payload_for(2, 100));
  EXPECT_EQ(segment_files().size(), 2u);

  // A reopen truncates the torn bytes off segment 1 and keeps both records.
  store.reset();
  store = open();
  EXPECT_EQ(store->stats().entries, 2u);
  EXPECT_EQ(store->stats().corrupt_dropped, 1u);
  ASSERT_TRUE(store->get(fp(0), &payload));
  EXPECT_EQ(payload, payload_for(0, 100));
  ASSERT_TRUE(store->get(fp(2), &payload));
  EXPECT_EQ(payload, payload_for(2, 100));
}

TEST_F(LogStoreTest, FailedSegmentHeaderIsWrittenAgainBeforeTheFirstRecord) {
  LogStoreOptions options;
  options.max_segment_bytes = 100;
  auto store = open(options);
  ASSERT_TRUE(store->put(fp(0), payload_for(0, 100)));  // fills segment 1

  // Rotating to segment 2, its 8-byte magic gets 4 bytes in, and the put
  // fails.
  bool torn_put = true;
  {
    const FileSizeLimit limit(4);
    ASSERT_TRUE(limit.ok());
    torn_put = store->put(fp(1), payload_for(1, 100));
  }
  EXPECT_FALSE(torn_put);

  // The next record follows a whole magic, so a reopen keeps its segment.
  ASSERT_TRUE(store->put(fp(2), payload_for(2, 100)));
  std::string payload;
  ASSERT_TRUE(store->get(fp(2), &payload));
  EXPECT_EQ(payload, payload_for(2, 100));
  store.reset();
  store = open(options);
  EXPECT_EQ(store->stats().entries, 2u);
  EXPECT_EQ(store->stats().corrupt_dropped, 0u);
  ASSERT_TRUE(store->get(fp(2), &payload));
  EXPECT_EQ(payload, payload_for(2, 100));
}

TEST_F(LogStoreTest, DirLockRefusesASecondStore) {
  auto store = open();
  EXPECT_THROW(LogStore::open(dir_.string(), {}), std::runtime_error);
  store.reset();
  // Released with the first store: reopening now succeeds.
  EXPECT_NO_THROW(LogStore::open(dir_.string(), {}));
}

TEST_F(LogStoreTest, OpenCreatesMissingDirectories) {
  dir_ /= "nested/deeper";
  auto store = open();
  store->put(fp(1), "x");
  std::string payload;
  EXPECT_TRUE(store->get(fp(1), &payload));
}

}  // namespace
}  // namespace codar::store
