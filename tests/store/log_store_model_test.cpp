// Model test for LogStore's index. A seeded stream of operations (puts of
// new keys, rewrites of a hot set, gets of present and absent keys,
// compact() and reopens) runs against a store whose byte budget evicts all
// the time and whose small segments rotate and compact on their own, so
// dead entries pile up and get squeezed out, and the index table grows,
// deletes and rebuilds. After every batch each get, stats().entries,
// stats().live_bytes, stats().evictions and recent_entries(k) for a few k
// must match a reference model.
//
// The model keeps the disk as well as the index: the records appended
// since the last compaction, which it sees through stats().compactions.
// Eviction drops a record from the index only, so a reopen reads it again:
// on reopen the model replays that log last-write-wins and then evicts
// oldest-first, as recovery does.
//
// The budget is the number of operations, a command-line argument:
//
//   store_log_store_model_test [--ops=N] [gtest flags]
//
// ctest runs the default, 20,000 (under a second in a release build); the
// sanitize CI lane runs the same binary with 50 times as many.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "codar/store/log_store.hpp"

namespace codar::store {
namespace {

namespace fs = std::filesystem;

constexpr std::size_t kDefaultOps = 20000;
std::size_t g_ops = kDefaultOps;

constexpr std::size_t kBatch = 250;
constexpr std::size_t kHotKeys = 64;
constexpr std::size_t kBudget = 256u << 10;      // about 1,600 live records
constexpr std::size_t kRecordOverhead = 8 + 24;  // header + key

std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Key id → a fingerprint that looks like a real digest triple.
Fingerprint key(std::uint64_t id) {
  return Fingerprint{mix(3 * id), mix(3 * id + 1), mix(3 * id + 2)};
}

/// The index and the on-disk log as LogStore's contract describes them.
class Model {
 public:
  explicit Model(std::size_t budget) : budget_(budget) {}

  void put(std::uint64_t id, const std::string& payload) {
    log_.emplace_back(id, payload);
    index(id, payload);
    evict();
  }

  /// The store compacted: the disk holds exactly the live records, in
  /// append order.
  void compacted() {
    log_.clear();
    for (const auto& [seq, id] : order_) log_.emplace_back(id, live_.at(id).payload);
  }

  /// The store was reopened: recovery replays the log, then enforces the
  /// budget. Counters start again.
  void reopened() {
    order_.clear();
    live_.clear();
    live_bytes_ = 0;
    evictions_ = 0;
    for (const auto& [id, payload] : log_) index(id, payload);
    evict();
  }

  const std::string* get(std::uint64_t id) const {
    const auto it = live_.find(id);
    return it == live_.end() ? nullptr : &it->second.payload;
  }

  /// The newest `n` live entries, oldest first.
  std::vector<std::pair<Fingerprint, std::string>> recent(std::size_t n) const {
    std::vector<std::pair<Fingerprint, std::string>> out;
    for (auto it = order_.rbegin(); it != order_.rend() && out.size() < n; ++it) {
      out.emplace_back(key(it->second), live_.at(it->second).payload);
    }
    return {out.rbegin(), out.rend()};
  }

  std::vector<std::uint64_t> live_ids() const {
    std::vector<std::uint64_t> ids;
    for (const auto& [seq, id] : order_) ids.push_back(id);
    return ids;
  }

  std::size_t entries() const { return live_.size(); }
  std::size_t live_bytes() const { return live_bytes_; }
  std::size_t evictions() const { return evictions_; }
  std::size_t log_records() const { return log_.size(); }

 private:
  struct Live {
    std::uint64_t seq;
    std::string payload;
  };

  void index(std::uint64_t id, const std::string& payload) {
    if (const auto it = live_.find(id); it != live_.end()) {
      live_bytes_ -= kRecordOverhead + it->second.payload.size();
      order_.erase(it->second.seq);
    }
    const std::uint64_t seq = next_seq_++;
    order_[seq] = id;
    live_[id] = Live{seq, payload};
    live_bytes_ += kRecordOverhead + payload.size();
  }

  void evict() {
    while (live_bytes_ > budget_ && !order_.empty()) {
      const std::uint64_t id = order_.begin()->second;
      live_bytes_ -= kRecordOverhead + live_.at(id).payload.size();
      live_.erase(id);
      order_.erase(order_.begin());
      ++evictions_;
    }
  }

  const std::size_t budget_;
  std::vector<std::pair<std::uint64_t, std::string>> log_;
  std::map<std::uint64_t, std::uint64_t> order_;  ///< Append seq → id.
  std::unordered_map<std::uint64_t, Live> live_;
  std::uint64_t next_seq_ = 0;
  std::size_t live_bytes_ = 0;
  std::size_t evictions_ = 0;
};

class LogStoreModelTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::path(testing::TempDir()) / "codar_log_store_model";
    fs::remove_all(dir_);
    options_.max_total_bytes = kBudget;
    options_.max_segment_bytes = 16u << 10;
    // Compact once dead bytes reach three times the live ones, so the index
    // squeezes its dead entries a few times between compactions.
    options_.compact_waste_ratio = 0.75;
    store_ = LogStore::open(dir_.string(), options_);
  }
  void TearDown() override {
    store_.reset();
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  std::string payload(std::uint64_t id) {
    std::string p(16 + rng_() % 225, '\0');
    std::uint64_t x = mix(id ^ (++version_ << 32));
    for (char& c : p) {
      x = mix(x);
      c = static_cast<char>(x);
    }
    return p;
  }

  void put(std::uint64_t id) {
    const std::string p = payload(id);
    ASSERT_TRUE(store_->put(key(id), p));
    model_.put(id, p);
    if (sync_compactions()) ++auto_compactions_;
  }

  void expect_get(std::uint64_t id) {
    std::string got;
    const bool found = store_->get(key(id), &got);
    const std::string* want = model_.get(id);
    ASSERT_EQ(found, want != nullptr) << "key " << id << " after op " << op_;
    if (found) {
      ASSERT_EQ(got, *want) << "key " << id << " after op " << op_;
    }
  }

  /// A compaction since the last look rewrote the disk to the live set.
  /// Returns whether there was one.
  bool sync_compactions() {
    const std::size_t seen = store_->stats().compactions;
    const bool compacted = seen != compactions_;
    if (compacted) model_.compacted();
    compactions_ = seen;
    return compacted;
  }

  void reopen() {
    store_.reset();
    store_ = LogStore::open(dir_.string(), options_);
    EXPECT_EQ(store_->stats().recovered, model_.log_records()) << "op " << op_;
    model_.reopened();
    compactions_ = 0;
    sync_compactions();
  }

  void check() {
    const StoreStats s = store_->stats();
    ASSERT_EQ(s.entries, model_.entries()) << "op " << op_;
    ASSERT_EQ(s.live_bytes, model_.live_bytes()) << "op " << op_;
    ASSERT_EQ(s.evictions, model_.evictions()) << "op " << op_;
    for (const std::uint64_t id : model_.live_ids()) {
      expect_get(id);
      if (HasFatalFailure()) return;
    }
    for (int i = 0; i < 64; ++i) {
      expect_get(rng_() % (next_id_ + 64));  // evicted, live or never put
      if (HasFatalFailure()) return;
    }
    for (const std::size_t k : {std::size_t{0}, std::size_t{1}, std::size_t{7},
                                model_.entries() / 2, SIZE_MAX}) {
      const auto got = store_->recent_entries(k);
      const auto want = model_.recent(k);
      ASSERT_EQ(got.size(), want.size()) << "k " << k << " after op " << op_;
      for (std::size_t i = 0; i < got.size(); ++i) {
        ASSERT_TRUE(got[i] == want[i])
            << "entry " << i << " of k " << k << " after op " << op_;
      }
    }
  }

  fs::path dir_;
  LogStoreOptions options_;
  std::unique_ptr<LogStore> store_;
  Model model_{kBudget};
  std::mt19937_64 rng_{0x5eed};
  std::uint64_t next_id_ = 0;      ///< Ids [0, next_id_) have been put.
  std::uint64_t version_ = 0;      ///< Makes every payload distinct.
  std::size_t compactions_ = 0;    ///< stats().compactions last seen.
  std::size_t auto_compactions_ = 0;
  std::size_t op_ = 0;
};

TEST_F(LogStoreModelTest, RandomOperationsMatchTheModel) {
  std::size_t reopens = 0;
  for (; op_ < g_ops; ++op_) {
    const std::uint64_t pick = rng_() % 10000;
    if (pick < 4000 || next_id_ < kHotKeys) {
      put(next_id_++);  // a new key; the first kHotKeys are the hot set
    } else if (pick < 7000) {
      put(rng_() % kHotKeys);  // rewrite: its old entry dies
    } else if (pick < 8500) {
      expect_get(rng_() % next_id_);
    } else if (pick < 9995) {
      expect_get(next_id_ + rng_() % 1000);  // never put
    } else if (pick < 9996) {
      store_->compact();
      sync_compactions();
    } else {
      reopen();
      ++reopens;
    }
    if (HasFatalFailure()) return;
    if ((op_ + 1) % kBatch == 0) {
      check();
      if (HasFatalFailure()) return;
    }
  }
  check();
  // The settings must have exercised what the test is for.
  if (g_ops >= kDefaultOps) {
    EXPECT_GT(store_->stats().segments, 1u);
    EXPECT_GT(auto_compactions_, 0u);
    EXPECT_GT(reopens, 0u);
    EXPECT_GT(model_.entries(), 1000u);
    EXPECT_GT(next_id_, 5000u);
  }
}

}  // namespace
}  // namespace codar::store

int main(int argc, char** argv) {
  ::testing::InitGoogleTest(&argc, argv);
  constexpr std::string_view kFlag = "--ops=";
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg.substr(0, kFlag.size()) == kFlag) {
      codar::store::g_ops =
          std::strtoull(std::string(arg.substr(kFlag.size())).c_str(), nullptr, 10);
    } else {
      std::fprintf(stderr, "usage: %s [--ops=N] [gtest flags]\n", argv[0]);
      return 2;
    }
  }
  return RUN_ALL_TESTS();
}
