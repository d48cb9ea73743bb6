// Persistent-cache acceptance tests for `codar serve --cache-dir`: a
// server routes the full built-in suite, stops, and a *fresh* server over
// the same directory (the kill-and-restart shape — the store is
// append-only, so a hard stop writes no shutdown ritual the restart could
// depend on) serves every response byte-identically from disk without
// routing anything. Damage scenarios (torn tail, garbage segments) must
// degrade to re-routing exactly the lost records, never abort startup.

#include "codar/service/server.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "codar/common/json.hpp"
#include "codar/qasm/writer.hpp"
#include "codar/store/log_store.hpp"
#include "codar/workloads/suite.hpp"

namespace codar::service {
namespace {

using common::Json;
using common::json_quote;

namespace fs = std::filesystem;

struct ServeRun {
  int exit_code = 0;
  std::vector<std::string> responses;
  std::string err;
};

ServeRun serve(const ServeOptions& opts,
               const std::vector<std::string>& lines) {
  std::string input;
  for (const std::string& line : lines) input += line + "\n";
  std::istringstream in(input);
  std::ostringstream out;
  std::ostringstream err;
  ServeRun run;
  run.exit_code = run_serve(opts, in, out, err);
  run.err = err.str();
  std::istringstream splitter(out.str());
  std::string line;
  while (std::getline(splitter, line)) run.responses.push_back(line);
  return run;
}

std::map<std::string, std::string> by_id(
    const std::vector<std::string>& responses) {
  std::map<std::string, std::string> index;
  for (const std::string& line : responses) {
    const Json doc = Json::parse(line);
    const Json* id = doc.find("id");
    EXPECT_NE(id, nullptr) << line;
    std::string key = "null";
    if (id->is_number()) key = id->raw_number();
    if (id->is_string()) key = json_quote(id->as_string());
    index[key] = line;
  }
  return index;
}

/// The byte span of the "result" object inside a response envelope.
std::string result_of(const std::string& response) {
  static const std::string marker = ", \"result\": ";
  const std::size_t pos = response.find(marker);
  EXPECT_NE(pos, std::string::npos) << response;
  if (pos == std::string::npos) return "";
  return response.substr(pos + marker.size(),
                         response.size() - pos - marker.size() - 1);
}

bool cached_flag(const std::string& response) {
  return Json::parse(response).find("cached")->as_bool();
}

double cache_stat(const Json& stats, const std::string& key) {
  return stats.find("cache")->find(key)->as_number();
}

class ServePersistTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::path(testing::TempDir()) /
           ("codar_serve_persist_" +
            std::string(
                ::testing::UnitTest::GetInstance()->current_test_info()->name()));
    fs::remove_all(dir_);
  }
  void TearDown() override {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  ServeOptions persistent_opts() {
    ServeOptions opts;
    opts.defaults.device = "enfield";
    opts.defaults.threads = 4;
    opts.cache_dir = dir_.string();
    return opts;
  }

  std::vector<fs::path> segment_files() const {
    std::vector<fs::path> files;
    for (const auto& entry : fs::directory_iterator(dir_)) {
      if (entry.path().extension() == ".seg") files.push_back(entry.path());
    }
    std::sort(files.begin(), files.end());
    return files;
  }

  fs::path dir_;
};

TEST_F(ServePersistTest, KillAndRestartServesTheSuiteFromDisk) {
  const std::vector<workloads::BenchmarkSpec> suite =
      workloads::benchmark_suite();
  std::set<std::uint64_t> unique;
  for (const workloads::BenchmarkSpec& spec : suite) {
    unique.insert(spec.circuit.fingerprint());
  }

  std::vector<std::string> lines;
  for (std::size_t i = 0; i < suite.size(); ++i) {
    lines.push_back("{\"id\": " + std::to_string(i) +
                    ", \"suite_name\": " + json_quote(suite[i].name) + "}");
  }
  lines.push_back(R"({"id": "stats", "cmd": "stats"})");

  // Cold server: routes everything, appends everything.
  const ServeRun cold = serve(persistent_opts(), lines);
  ASSERT_EQ(cold.exit_code, 0) << cold.err;
  const std::map<std::string, std::string> cold_index =
      by_id(cold.responses);
  const Json cold_stats = Json::parse(cold_index.at("\"stats\""));
  EXPECT_EQ(Json::parse(cold_index.at("\"stats\"")).find("routed")->as_number(),
            static_cast<double>(unique.size()));
  EXPECT_EQ(cache_stat(cold_stats, "disk_hits"), 0.0);
  EXPECT_EQ(
      cold_stats.find("cache")->find("disk")->find("entries")->as_number(),
      static_cast<double>(unique.size()));
  EXPECT_NE(cold.err.find("route cache dir"), std::string::npos) << cold.err;

  // Restart on the same directory. The warm server must answer the whole
  // suite from disk: zero routes, every result byte-identical, and
  // disk_hits exactly one per unique fingerprint (single-flight coalesces
  // duplicate-fingerprint benchmarks into memory hits).
  const ServeRun warm = serve(persistent_opts(), lines);
  ASSERT_EQ(warm.exit_code, 0) << warm.err;
  const std::map<std::string, std::string> warm_index =
      by_id(warm.responses);
  for (std::size_t i = 0; i < suite.size(); ++i) {
    const std::string& id = std::to_string(i);
    ASSERT_TRUE(warm_index.count(id)) << suite[i].name;
    EXPECT_EQ(result_of(warm_index.at(id)), result_of(cold_index.at(id)))
        << suite[i].name;
    EXPECT_TRUE(cached_flag(warm_index.at(id))) << suite[i].name;
  }
  const Json warm_stats = Json::parse(warm_index.at("\"stats\""));
  EXPECT_EQ(warm_stats.find("routed")->as_number(), 0.0);
  EXPECT_EQ(cache_stat(warm_stats, "misses"), 0.0);
  EXPECT_EQ(cache_stat(warm_stats, "disk_hits"),
            static_cast<double>(unique.size()));
  EXPECT_EQ(cache_stat(warm_stats, "mem_hits"),
            static_cast<double>(suite.size() - unique.size()));
  EXPECT_EQ(cache_stat(warm_stats, "hits"),
            static_cast<double>(suite.size()));
}

TEST_F(ServePersistTest, TornTailReRoutesExactlyTheLostEntry) {
  ServeOptions opts = persistent_opts();
  opts.defaults.threads = 1;  // deterministic append order
  // Three distinct cache keys (same circuit, different seeds) appended in
  // request order.
  const std::vector<std::string> lines = {
      R"({"id": 1, "suite_name": "ghz_3"})",
      R"({"id": 2, "suite_name": "ghz_3", "options": {"seed": 5}})",
      R"({"id": 3, "suite_name": "ghz_3", "options": {"seed": 6}})",
      R"({"id": "stats", "cmd": "stats"})",
  };
  const ServeRun cold = serve(opts, lines);
  ASSERT_EQ(cold.exit_code, 0) << cold.err;
  const std::map<std::string, std::string> cold_index =
      by_id(cold.responses);

  // Power cut mid-append: the last record in the newest segment loses its
  // tail bytes.
  const std::vector<fs::path> files = segment_files();
  ASSERT_FALSE(files.empty());
  const fs::path& newest = files.back();
  fs::resize_file(newest, fs::file_size(newest) - 3);

  const ServeRun warm = serve(opts, lines);
  ASSERT_EQ(warm.exit_code, 0) << warm.err;
  // Startup warned about the truncation instead of refusing to boot.
  EXPECT_NE(warm.err.find("warning"), std::string::npos) << warm.err;
  const std::map<std::string, std::string> warm_index =
      by_id(warm.responses);
  const Json warm_stats = Json::parse(warm_index.at("\"stats\""));
  // Exactly the torn-away entry re-routes; the survivors serve from disk.
  EXPECT_EQ(warm_stats.find("routed")->as_number(), 1.0);
  EXPECT_EQ(cache_stat(warm_stats, "disk_hits"), 2.0);
  EXPECT_EQ(cache_stat(warm_stats, "misses"), 1.0);
  // Determinism makes even the re-routed result byte-identical.
  for (const std::string id : {"1", "2", "3"}) {
    EXPECT_EQ(result_of(warm_index.at(id)), result_of(cold_index.at(id)))
        << id;
  }
}

TEST_F(ServePersistTest, WarmStartServesFromMemoryWithoutDiskProbes) {
  ServeOptions opts = persistent_opts();
  const std::vector<std::string> lines = {
      R"({"id": 1, "suite_name": "ghz_3"})",
      R"({"id": 2, "suite_name": "qft_4"})",
      R"({"id": "stats", "cmd": "stats"})",
  };
  const ServeRun cold = serve(opts, lines);
  ASSERT_EQ(cold.exit_code, 0) << cold.err;

  opts.warm_start = 1000;  // preload everything persisted
  const ServeRun warm = serve(opts, lines);
  ASSERT_EQ(warm.exit_code, 0) << warm.err;
  EXPECT_NE(warm.err.find("2 preloaded"), std::string::npos) << warm.err;
  const std::map<std::string, std::string> warm_index =
      by_id(warm.responses);
  const Json warm_stats = Json::parse(warm_index.at("\"stats\""));
  // Preloaded entries are already resident: the rerun never touches disk.
  EXPECT_EQ(warm_stats.find("routed")->as_number(), 0.0);
  EXPECT_EQ(cache_stat(warm_stats, "mem_hits"), 2.0);
  EXPECT_EQ(cache_stat(warm_stats, "disk_hits"), 0.0);
  EXPECT_EQ(cache_stat(warm_stats, "misses"), 0.0);
  for (const std::string id : {"1", "2"}) {
    EXPECT_EQ(result_of(warm_index.at(id)),
              result_of(by_id(cold.responses).at(id)))
        << id;
  }
}

TEST_F(ServePersistTest, GarbageInTheCacheDirNeverAbortsStartup) {
  fs::create_directories(dir_);
  // Crash debris: an empty segment, a foreign-magic segment, and an
  // unrelated file the scanner must ignore.
  std::ofstream(dir_ / "codar-000000000001.seg").flush();
  std::ofstream(dir_ / "codar-000000000002.seg") << "XXXXXXXX not a segment";
  std::ofstream(dir_ / "README.txt") << "hands off";

  const std::vector<std::string> lines = {
      R"({"id": 1, "suite_name": "ghz_3"})",
      R"({"id": "stats", "cmd": "stats"})",
  };
  const ServeRun run = serve(persistent_opts(), lines);
  ASSERT_EQ(run.exit_code, 0) << run.err;
  EXPECT_NE(run.err.find("warning"), std::string::npos) << run.err;
  const std::map<std::string, std::string> index = by_id(run.responses);
  EXPECT_EQ(Json::parse(index.at("\"stats\"")).find("routed")->as_number(),
            1.0);
  // The debris was cleaned up, and the fresh route was persisted.
  const Json stats = Json::parse(index.at("\"stats\""));
  EXPECT_EQ(stats.find("cache")->find("disk")->find("entries")->as_number(),
            1.0);
}

TEST_F(ServePersistTest, LockedCacheDirIsACleanStartupError) {
  // Another live process (here: a directly held store) owns the dir.
  auto holder = store::LogStore::open(dir_.string(), {});
  const ServeRun run =
      serve(persistent_opts(), {R"({"id": 1, "suite_name": "ghz_3"})"});
  EXPECT_EQ(run.exit_code, 2);
  EXPECT_NE(run.err.find("error:"), std::string::npos) << run.err;
  EXPECT_NE(run.err.find("locked"), std::string::npos) << run.err;
  EXPECT_TRUE(run.responses.empty());
}

TEST_F(ServePersistTest, StatsReportDiskTierGauges) {
  const ServeRun run = serve(persistent_opts(),
                             {R"({"id": 1, "suite_name": "ghz_3"})",
                              R"({"id": "stats", "cmd": "stats"})"});
  ASSERT_EQ(run.exit_code, 0) << run.err;
  const Json stats =
      Json::parse(by_id(run.responses).at("\"stats\""));
  const Json* disk = stats.find("cache")->find("disk");
  ASSERT_NE(disk, nullptr);
  EXPECT_TRUE(disk->find("enabled")->as_bool());
  EXPECT_EQ(disk->find("entries")->as_number(), 1.0);
  EXPECT_GT(disk->find("bytes")->as_number(), 0.0);
  EXPECT_GE(disk->find("file_bytes")->as_number(),
            disk->find("bytes")->as_number());
  EXPECT_EQ(disk->find("budget")->as_number(),
            static_cast<double>(std::size_t{1} << 30));
  EXPECT_EQ(disk->find("evictions")->as_number(), 0.0);
}

TEST_F(ServePersistTest, TimedHitsReportNoWallTimes) {
  // route_us and stage_us time the request whose worker routed. A cache
  // hit routed nothing, so it reports none: not the wall times of the
  // request that filled the entry, in this process or in the one that
  // wrote the cache dir.
  const std::string timed =
      R"("suite_name": "qft_8", "options": {"timing": true}})";
  const auto expect_untimed_hit = [](const std::string& response) {
    EXPECT_TRUE(cached_flag(response)) << response;
    const Json doc = Json::parse(response);
    const Json* result = doc.find("result");
    ASSERT_NE(result, nullptr) << response;
    EXPECT_EQ(result->find("route_us")->as_number(), 0.0) << response;
    EXPECT_TRUE(result->find("stage_us")->members().empty()) << response;
  };

  ServeOptions opts = persistent_opts();
  opts.defaults.threads = 1;  // the first request routes, the second hits
  const ServeRun first =
      serve(opts, {"{\"id\": 1, " + timed, "{\"id\": 2, " + timed});
  ASSERT_EQ(first.exit_code, 0) << first.err;
  const std::map<std::string, std::string> index = by_id(first.responses);
  EXPECT_FALSE(cached_flag(index.at("1")));
  EXPECT_FALSE(Json::parse(index.at("1"))
                   .find("result")
                   ->find("stage_us")
                   ->members()
                   .empty());
  expect_untimed_hit(index.at("2"));

  const ServeRun restarted = serve(opts, {"{\"id\": 3, " + timed});
  ASSERT_EQ(restarted.exit_code, 0) << restarted.err;
  ASSERT_EQ(restarted.responses.size(), 1u);
  expect_untimed_hit(restarted.responses.front());
}

TEST_F(ServePersistTest, CachedBytesDoNotDependOnWhichAliasRoutedFirst) {
  // A suite name and the same program sent inline share one cache key. The
  // entry must not keep the name of whichever of them routed, or the
  // memory tier's byte count and the persisted record would depend on the
  // order the two arrive in.
  std::string ghz_3;
  for (const workloads::BenchmarkSpec& spec : workloads::benchmark_suite()) {
    if (spec.name == "ghz_3") ghz_3 = qasm::to_qasm(spec.circuit);
  }
  ASSERT_FALSE(ghz_3.empty());
  const std::string by_name = R"("suite_name": "ghz_3")";
  const std::string by_content = "\"qasm\": " + json_quote(ghz_3);

  const auto stats_after = [&](const std::string& first,
                               const std::string& second,
                               const std::string& subdir) {
    ServeOptions opts = persistent_opts();
    opts.defaults.threads = 1;
    opts.cache_dir = (dir_ / subdir).string();
    const ServeRun run = serve(opts, {"{\"id\": 1, " + first + "}",
                                      "{\"id\": 2, " + second + "}",
                                      R"({"id": 3, "cmd": "stats"})"});
    EXPECT_EQ(run.exit_code, 0) << run.err;
    const std::map<std::string, std::string> index = by_id(run.responses);
    EXPECT_FALSE(cached_flag(index.at("1")));
    EXPECT_TRUE(cached_flag(index.at("2")));
    return Json::parse(index.at("3"));
  };
  const Json name_first = stats_after(by_name, by_content, "name-first");
  const Json content_first = stats_after(by_content, by_name, "content-first");
  EXPECT_EQ(cache_stat(name_first, "bytes"),
            cache_stat(content_first, "bytes"));
  const auto disk_bytes = [](const Json& stats) {
    return stats.find("cache")->find("disk")->find("bytes")->as_number();
  };
  EXPECT_EQ(disk_bytes(name_first), disk_bytes(content_first));
}

}  // namespace
}  // namespace codar::service
