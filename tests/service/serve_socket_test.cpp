// Socket-transport tests for `codar serve`: a multi-client pipelined TCP
// storm whose per-request stats are byte-identical to the batch driver,
// seeded load mixes whose cache counters are exact, Unix-domain sockets,
// per-connection backpressure liveness, and protocol robustness at the
// transport boundary — oversized frames, split lines, malformed JSON
// mid-pipeline, clients vanishing with responses pending, idle timeouts
// and drain-on-shutdown. The TSan CI lane runs these to put real
// contention on the connection path.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <ostream>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "codar/arch/device.hpp"
#include "codar/arch/device_json.hpp"
#include "codar/cli/driver.hpp"
#include "codar/cli/options.hpp"
#include "codar/common/json.hpp"
#include "codar/pipeline/device_registry.hpp"
#include "codar/qasm/parser.hpp"
#include "codar/qasm/writer.hpp"
#include "codar/service/server.hpp"
#include "codar/service/transport.hpp"
#include "codar/workloads/suite.hpp"

#include <unistd.h>

namespace codar::service {
namespace {

using common::Json;
using common::json_quote;
using pipeline::RouteReport;
using pipeline::UsageError;

/// A blocking NDJSON test client over one transport connection.
class Client {
 public:
  explicit Client(const std::string& endpoint)
      : conn_(connect_endpoint(endpoint, /*timeout_ms=*/5000)) {}

  bool send(const std::string& line) { return conn_->write_all(line + "\n"); }
  bool send_raw(const std::string& bytes) { return conn_->write_all(bytes); }

  /// Reads one response line. False on EOF/error/timeout.
  bool read_line(std::string* line, int timeout_ms = 60000) {
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(timeout_ms);
    for (;;) {
      const std::size_t nl = buffer_.find('\n');
      if (nl != std::string::npos) {
        line->assign(buffer_, 0, nl);
        buffer_.erase(0, nl + 1);
        return true;
      }
      const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
          deadline - std::chrono::steady_clock::now());
      if (left.count() <= 0) return false;
      char chunk[16 * 1024];
      std::size_t got = 0;
      switch (conn_->read_some(chunk, sizeof chunk, &got,
                               static_cast<int>(left.count()))) {
        case ReadStatus::kData:
          buffer_.append(chunk, got);
          break;
        case ReadStatus::kEof:
        case ReadStatus::kTimeout:
        case ReadStatus::kError:
          return false;
      }
    }
  }

  /// True when the server closed the stream. A close with unread client
  /// bytes still queued (e.g. after an oversized frame) surfaces as a
  /// reset rather than EOF — both count as closed, a timeout does not.
  bool closed(int timeout_ms = 5000) {
    if (!buffer_.empty()) return false;
    char chunk[64];
    std::size_t got = 0;
    const ReadStatus status =
        conn_->read_some(chunk, sizeof chunk, &got, timeout_ms);
    return status == ReadStatus::kEof || status == ReadStatus::kError;
  }

  void close() { conn_.reset(); }

 private:
  std::unique_ptr<Connection> conn_;
  std::string buffer_;
};

/// The byte span of the "result" object inside a response envelope.
std::string result_of(const std::string& response) {
  static const std::string marker = ", \"result\": ";
  const std::size_t pos = response.find(marker);
  EXPECT_NE(pos, std::string::npos) << response;
  if (pos == std::string::npos) return "";
  return response.substr(pos + marker.size(),
                         response.size() - pos - marker.size() - 1);
}

ServeOptions tcp_options() {
  ServeOptions opts;
  opts.defaults.device = "enfield";
  opts.defaults.threads = 4;
  opts.listen = "tcp:127.0.0.1:0";
  return opts;
}

TEST(ServeSocket, EightClientStormIsByteIdenticalToBatch) {
  // The acceptance lock for the transport: 8 concurrent clients pipeline
  // the full 71-benchmark suite over TCP; every per-request stats object
  // must equal the one-shot batch driver's bytes, and the cache counters
  // must be exact despite the concurrency (single-flight: every unique
  // key routes exactly once across all clients). Odd clients send each
  // circuit as inline QASM under its suite name, so readers parsing and
  // peeking race the workers inserting the same keys.
  const ServeOptions sopts = tcp_options();
  const auto handle = start_serve(sopts);

  const std::vector<workloads::BenchmarkSpec> suite =
      workloads::benchmark_suite();
  const arch::Device device =
      pipeline::DeviceRegistry::instance().make("enfield");
  const std::vector<RouteReport> reference =
      cli::run_batch(suite, device, sopts.defaults);

  std::vector<std::string> by_name(suite.size());
  std::vector<std::string> inline_qasm(suite.size());
  for (std::size_t i = 0; i < suite.size(); ++i) {
    by_name[i] = "\"suite_name\": " + json_quote(suite[i].name);
    const std::string text = qasm::to_qasm(suite[i].circuit);
    // Same content key as the suite entry: both spellings share a route.
    ASSERT_EQ(qasm::parse(text).fingerprint(), suite[i].circuit.fingerprint())
        << suite[i].name;
    inline_qasm[i] = "\"qasm\": " + json_quote(text) +
                     ", \"name\": " + json_quote(suite[i].name);
  }

  constexpr int kClients = 8;
  std::vector<std::vector<std::string>> results(kClients);
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      const std::vector<std::string>& source =
          c % 2 == 0 ? by_name : inline_qasm;
      Client client(handle->endpoint());
      // Pipeline the whole suite in one burst — more requests than the
      // default --max-inflight, so the server's backpressure path runs.
      for (std::size_t i = 0; i < suite.size(); ++i) {
        ASSERT_TRUE(client.send("{\"id\": " + std::to_string(i) + ", " +
                                source[i] + "}"));
      }
      std::map<std::string, std::string> by_id;
      for (std::size_t i = 0; i < suite.size(); ++i) {
        std::string line;
        ASSERT_TRUE(client.read_line(&line)) << "client " << c;
        const Json doc = Json::parse(line);
        by_id[doc.find("id")->raw_number()] = line;
      }
      results[c].resize(suite.size());
      for (std::size_t i = 0; i < suite.size(); ++i) {
        const auto it = by_id.find(std::to_string(i));
        ASSERT_NE(it, by_id.end()) << "client " << c << " id " << i;
        results[c][i] = result_of(it->second);
      }
    });
  }
  for (std::thread& t : clients) t.join();

  for (int c = 0; c < kClients; ++c) {
    ASSERT_EQ(results[c].size(), suite.size()) << "client " << c;
    for (std::size_t i = 0; i < suite.size(); ++i) {
      EXPECT_EQ(results[c][i],
                pipeline::to_json(reference[i], sopts.defaults))
          << "client " << c << ", " << suite[i].name;
    }
  }

  // Exact counters across all the concurrency: unique keys route once.
  std::set<std::uint64_t> unique;
  for (const workloads::BenchmarkSpec& spec : suite) {
    unique.insert(spec.circuit.fingerprint());
  }
  Client probe(handle->endpoint());
  ASSERT_TRUE(probe.send(R"({"id": "s", "cmd": "stats"})"));
  std::string line;
  ASSERT_TRUE(probe.read_line(&line));
  const Json stats = Json::parse(line);
  EXPECT_EQ(stats.find("requests")->as_number(),
            static_cast<double>(kClients * suite.size()));
  EXPECT_EQ(stats.find("routed")->as_number(),
            static_cast<double>(unique.size()));
  EXPECT_EQ(stats.find("errors")->as_number(), 0.0);
  EXPECT_EQ(stats.find("cache")->find("misses")->as_number(),
            static_cast<double>(unique.size()));
  EXPECT_EQ(stats.find("cache")->find("hits")->as_number(),
            static_cast<double>(kClients * suite.size() - unique.size()));
}

TEST(ServeSocket, HitIsNotQueuedBehindARoute) {
  // One worker, busy routing a cache-busting request: a memory hit
  // pipelined behind it on the same connection is answered by the
  // connection's reader, before the route completes.
  ServeOptions sopts = tcp_options();
  sopts.defaults.threads = 1;
  const auto handle = start_serve(sopts);
  Client client(handle->endpoint());
  const auto stats = [&](const char* id) {
    std::string line;
    EXPECT_TRUE(client.send("{\"id\": \"" + std::string(id) +
                            "\", \"cmd\": \"stats\"}"));
    EXPECT_TRUE(client.read_line(&line));
    const Json doc = Json::parse(line);
    return std::pair{doc.find("routed")->as_number(),
                     doc.find("cache")->find("hits")->as_number()};
  };

  std::string line;
  ASSERT_TRUE(client.send(R"({"id": 0, "suite_name": "ghz_3"})"));
  ASSERT_TRUE(client.read_line(&line));
  const auto [routed_before, hits_before] = stats("warm");

  // A fresh seed busts the cache; the whole-circuit layout search makes
  // the route take about 0.1 s in Release, far longer than answering a hit.
  ASSERT_TRUE(client.send_raw(
      "{\"id\": 1, \"suite_name\": \"random_16_20000\", \"options\": "
      "{\"seed\": 4242, \"mapping_horizon\": 0}}\n"
      "{\"id\": 2, \"suite_name\": \"ghz_3\"}\n"));
  std::vector<std::string> order;
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(client.read_line(&line));
    const Json doc = Json::parse(line);
    order.push_back(doc.find("id")->raw_number());
    EXPECT_EQ(doc.find("cached")->as_bool(), order.back() == "2") << line;
  }
  EXPECT_EQ(order, (std::vector<std::string>{"2", "1"}))
      << "the hit waited for the worker's route";

  const auto [routed_after, hits_after] = stats("after");
  EXPECT_EQ(routed_after, routed_before + 1);
  EXPECT_EQ(hits_after, hits_before + 1);
}

TEST(ServeSocket, ReaderStopsAtTheQueuedGateBudget) {
  // A short line can expand to 2^20 gates, so what a connection's queued
  // misses hold is bounded by their gates, not by the bytes it sent: with
  // that many gates queued behind the only worker, the reader stops
  // reading, and a memory hit sent next waits until the worker is done
  // with the route ahead of the program.
  ServeOptions sopts = tcp_options();
  sopts.defaults.threads = 1;
  const auto handle = start_serve(sopts);
  Client client(handle->endpoint());
  std::string line;
  ASSERT_TRUE(client.send(R"({"id": 0, "suite_name": "ghz_3"})"));
  ASSERT_TRUE(client.read_line(&line));

  std::string wide = "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[65536];\n";
  for (int i = 0; i < 16; ++i) wide += "h q;\n";  // 16 * 65536 = 2^20 gates
  ASSERT_TRUE(client.send_raw(
      "{\"id\": 1, \"suite_name\": \"random_16_20000\", \"options\": "
      "{\"seed\": 4243, \"mapping_horizon\": 0}}\n"
      "{\"id\": 2, \"qasm\": " +
      json_quote(wide) +
      "}\n"
      "{\"id\": 3, \"suite_name\": \"ghz_3\"}\n"));
  std::vector<std::string> order;
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(client.read_line(&line));
    const Json doc = Json::parse(line);
    order.push_back(doc.find("id")->raw_number());
    if (order.back() == "2") {
      // Routing fails (enfield has 20 qubits); the program was held anyway.
      EXPECT_NE(line.find("uses 65536 qubits"), std::string::npos) << line;
    }
  }
  EXPECT_EQ(order.front(), "1") << "the hit was read past a full gate budget";
  EXPECT_EQ(std::count(order.begin(), order.end(), "3"), 1);
}

// -- Seeded load mixes -------------------------------------------------------

/// Request mixes; each value is the mix's RNG stream index.
enum class Mix { kSequential = 0, kUniform = 1, kZipf = 2 };

constexpr int kMixClients = 8;
constexpr int kMixRequests = 400;  // per client
constexpr std::uint64_t kMixTotal = kMixClients * kMixRequests;
constexpr int kInlineDevices = 3;

/// One request of a mix: suite circuit `circuit` on the server's default
/// device, or on inline device `device` when it is not -1.
struct MixRequest {
  std::size_t circuit = 0;
  int device = -1;
  auto operator<=>(const MixRequest&) const = default;
};

/// Zipf(s=1) cumulative distribution over ranks 0..n-1. With s = 1 the
/// weights are plain divisions (correctly rounded), so the table, and the
/// mix drawn from it, is the same on every platform; pow() would not be.
std::vector<double> zipf_cdf(std::size_t n) {
  double total = 0.0;
  for (std::size_t k = 0; k < n; ++k) total += 1.0 / static_cast<double>(k + 1);
  std::vector<double> cdf(n);
  double cum = 0.0;
  for (std::size_t k = 0; k < n; ++k) {
    cum += 1.0 / static_cast<double>(k + 1) / total;
    cdf[k] = cum;
  }
  cdf[n - 1] = 1.0;  // guard against rounding shortfall
  return cdf;
}

/// Client `client`'s requests in `mix`. Draws are raw mt19937_64 output,
/// not std:: distributions (whose mappings vary by standard library).
/// Every 8th request names an inline device; in the random mixes the
/// choice costs one draw after the circuit's.
std::vector<MixRequest> mix_stream(Mix mix, int client,
                                   std::size_t suite_size) {
  std::mt19937_64 rng(1000003ULL + 1009ULL * static_cast<std::uint64_t>(mix) +
                      static_cast<std::uint64_t>(client));
  const std::vector<double> cdf = zipf_cdf(suite_size);
  std::vector<MixRequest> stream(kMixRequests);
  for (int i = 0; i < kMixRequests; ++i) {
    MixRequest& r = stream[static_cast<std::size_t>(i)];
    switch (mix) {
      case Mix::kSequential:
        r.circuit = static_cast<std::size_t>(i) % suite_size;
        break;
      case Mix::kUniform:
        r.circuit = static_cast<std::size_t>(rng() % suite_size);
        break;
      case Mix::kZipf: {
        const double u = static_cast<double>(rng() >> 11) * 0x1.0p-53;
        r.circuit = static_cast<std::size_t>(
            std::upper_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
        break;
      }
    }
    if (i % 8 == 5) {
      r.device = mix == Mix::kSequential
                     ? (i / 8) % kInlineDevices
                     : static_cast<int>(rng() % kInlineDevices);
    }
  }
  return stream;
}

/// The server counters a load mix pins, from {"cmd": "stats"}.
struct LoadCounters {
  std::uint64_t requests, routed, errors, hits, misses, disk_hits;
  bool operator==(const LoadCounters&) const = default;
};

std::ostream& operator<<(std::ostream& os, const LoadCounters& c) {
  return os << "requests/routed/errors/hits/misses/disk_hits " << c.requests
            << "/" << c.routed << "/" << c.errors << "/" << c.hits << "/"
            << c.misses << "/" << c.disk_hits;
}

TEST(ServeSocket, LoadMixCountersAreExact) {
  // Eight pipelined clients send seeded mixes: sequential (each client
  // walks the suite in order), uniform, zipf (the hot-key shape of a
  // cache), and warm_start, the sequential mix against a server restarted
  // on the --cache-dir a first server filled. Single-flight routes, and
  // probes disk for, each distinct key once, so the counters depend only
  // on the request streams: the worker count is fixed, not the hardware's.
  const std::vector<workloads::BenchmarkSpec> suite =
      workloads::benchmark_suite();
  // Recalibrated Enfield variants: distinct device fingerprints, so the
  // inline-device path routes for real.
  std::vector<std::string> devices;
  for (int v = 0; v < kInlineDevices; ++v) {
    arch::Device dev = arch::enfield_6x6();
    dev.calibration.set_duration_2q(0, 1,
                                    static_cast<arch::Duration>(12 + 4 * v));
    std::string text = arch::device_to_json(dev);
    std::replace(text.begin(), text.end(), '\n', ' ');
    devices.push_back(text);
  }

  const auto distinct_keys = [&](Mix mix) {
    std::set<MixRequest> keys;
    for (int c = 0; c < kMixClients; ++c) {
      for (const MixRequest& r : mix_stream(mix, c, suite.size())) {
        keys.insert(r);
      }
    }
    return static_cast<std::uint64_t>(keys.size());
  };

  // Starts a server, lets every client run its stream with up to 32
  // requests in flight (below --max-inflight), then stops the server.
  const auto run_mix = [&](const ServeOptions& sopts, Mix mix) {
    const auto handle = start_serve(sopts);
    std::vector<std::thread> clients;
    for (int c = 0; c < kMixClients; ++c) {
      clients.emplace_back([&, c] {
        std::vector<std::string> lines;
        for (const MixRequest& r : mix_stream(mix, c, suite.size())) {
          std::string line =
              "{\"suite_name\": " + json_quote(suite[r.circuit].name);
          if (r.device != -1) {
            line += ", \"device\": " +
                    devices[static_cast<std::size_t>(r.device)];
          }
          lines.push_back(line + "}");
        }
        Client client(handle->endpoint());
        std::size_t sent = 0;
        for (std::size_t done = 0; done < lines.size(); ++done) {
          while (sent < lines.size() && sent - done < 32) {
            ASSERT_TRUE(client.send(lines[sent++]));
          }
          std::string response;
          ASSERT_TRUE(client.read_line(&response)) << "client " << c;
        }
      });
    }
    for (std::thread& t : clients) t.join();

    Client probe(handle->endpoint());
    std::string line;
    EXPECT_TRUE(probe.send(R"({"cmd": "stats"})"));
    EXPECT_TRUE(probe.read_line(&line));
    const Json stats = Json::parse(line);
    const Json& cache = *stats.find("cache");
    const auto count = [](const Json& doc, const char* key) {
      return static_cast<std::uint64_t>(doc.find(key)->as_number());
    };
    handle->shutdown();
    EXPECT_EQ(handle->join(), 0);
    return LoadCounters{count(stats, "requests"), count(stats, "routed"),
                        count(stats, "errors"),   count(cache, "hits"),
                        count(cache, "misses"),   count(cache, "disk_hits")};
  };

  const LoadCounters sequential = run_mix(tcp_options(), Mix::kSequential);
  const LoadCounters uniform = run_mix(tcp_options(), Mix::kUniform);
  const LoadCounters zipf = run_mix(tcp_options(), Mix::kZipf);
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) /
      ("codar_serve_load_mix_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  ServeOptions persistent = tcp_options();
  persistent.cache_dir = dir.string();
  const LoadCounters populate = run_mix(persistent, Mix::kSequential);
  const LoadCounters warm_start = run_mix(persistent, Mix::kSequential);
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);

  EXPECT_EQ(sequential, (LoadCounters{3200, 121, 0, 3079, 121, 0}));
  EXPECT_EQ(uniform, (LoadCounters{3200, 252, 0, 2948, 252, 0}));
  EXPECT_EQ(zipf, (LoadCounters{3200, 202, 0, 2998, 202, 0}));
  EXPECT_EQ(warm_start, (LoadCounters{3200, 0, 0, 3200, 0, 121}));

  // The same values from the streams: a cold server routes each distinct
  // key once and answers every other request from memory; a restarted
  // one finds each distinct key on disk once and routes nothing.
  const auto cold = [&](Mix mix) {
    const std::uint64_t distinct = distinct_keys(mix);
    return LoadCounters{kMixTotal, distinct, 0, kMixTotal - distinct,
                        distinct,  0};
  };
  EXPECT_EQ(sequential, cold(Mix::kSequential));
  EXPECT_EQ(uniform, cold(Mix::kUniform));
  EXPECT_EQ(zipf, cold(Mix::kZipf));
  EXPECT_EQ(populate, cold(Mix::kSequential));
  EXPECT_EQ(warm_start, (LoadCounters{kMixTotal, 0, 0, kMixTotal, 0,
                                      distinct_keys(Mix::kSequential)}));
}

TEST(ServeSocket, UnixDomainSocketServesConcurrentClients) {
  ServeOptions sopts = tcp_options();
  sopts.listen = "unix:/tmp/codar_serve_socket_test_" +
                 std::to_string(::getpid()) + ".sock";
  const auto handle = start_serve(sopts);
  EXPECT_EQ(handle->endpoint(), sopts.listen);

  const arch::Device device =
      pipeline::DeviceRegistry::instance().make("enfield");
  const std::vector<workloads::BenchmarkSpec> suite =
      workloads::benchmark_suite();
  const std::vector<RouteReport> reference =
      cli::run_batch(suite, device, sopts.defaults);

  std::vector<std::thread> clients;
  clients.reserve(2);
  for (int c = 0; c < 2; ++c) {
    clients.emplace_back([&] {
      Client client(handle->endpoint());
      for (int i = 0; i < 8; ++i) {
        ASSERT_TRUE(client.send(
            "{\"id\": " + std::to_string(i) + ", \"suite_name\": " +
            json_quote(suite[static_cast<std::size_t>(i)].name) + "}"));
      }
      std::map<std::string, std::string> by_id;
      for (int i = 0; i < 8; ++i) {
        std::string line;
        ASSERT_TRUE(client.read_line(&line));
        by_id[Json::parse(line).find("id")->raw_number()] = line;
      }
      for (int i = 0; i < 8; ++i) {
        EXPECT_EQ(result_of(by_id.at(std::to_string(i))),
                  pipeline::to_json(reference[static_cast<std::size_t>(i)],
                                    sopts.defaults));
      }
    });
  }
  for (std::thread& t : clients) t.join();
}

TEST(ServeSocket, OversizedFrameDrawsErrorAndCloseWithoutPoisoningOthers) {
  ServeOptions sopts = tcp_options();
  sopts.max_line_bytes = 4096;
  const auto handle = start_serve(sopts);

  Client attacker(handle->endpoint());
  // No terminating newline: the reader must cap the buffered line, not
  // wait for framing that never comes.
  ASSERT_TRUE(attacker.send_raw(std::string(64 * 1024, 'a')));
  std::string line;
  ASSERT_TRUE(attacker.read_line(&line));
  EXPECT_NE(line.find("\"error\""), std::string::npos) << line;
  EXPECT_NE(line.find("exceeds"), std::string::npos) << line;
  EXPECT_TRUE(attacker.closed());

  // A well-behaved concurrent client is unaffected.
  Client normal(handle->endpoint());
  ASSERT_TRUE(normal.send(R"({"id": 1, "suite_name": "ghz_3"})"));
  ASSERT_TRUE(normal.read_line(&line));
  EXPECT_NE(line.find("\"verified\": true"), std::string::npos) << line;
}

TEST(ServeSocket, SplitAndPipelinedLinesReassemble) {
  const ServeOptions sopts = tcp_options();
  const auto handle = start_serve(sopts);

  Client client(handle->endpoint());
  // One request split across three writes...
  ASSERT_TRUE(client.send_raw(R"({"id": 1, "suite)"));
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  ASSERT_TRUE(client.send_raw(R"(_name": "ghz)"));
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  ASSERT_TRUE(client.send_raw("_3\"}\n"));
  // ...then two requests pipelined in a single write.
  ASSERT_TRUE(client.send_raw("{\"id\": 2, \"suite_name\": \"ghz_3\"}\n"
                              "{\"id\": 3, \"cmd\": \"stats\"}\n"));

  std::map<std::string, std::string> by_id;
  for (int i = 0; i < 3; ++i) {
    std::string line;
    ASSERT_TRUE(client.read_line(&line));
    const Json doc = Json::parse(line);
    by_id[doc.find("id")->raw_number()] = line;
  }
  // Both route requests succeed (which of the two identical ones routed
  // first and which coalesced into it is scheduling-dependent, so the
  // "cached" flag itself is not asserted).
  EXPECT_NE(by_id.at("1").find("\"verified\": true"), std::string::npos);
  EXPECT_NE(by_id.at("2").find("\"verified\": true"), std::string::npos);
  EXPECT_EQ(Json::parse(by_id.at("3")).find("requests")->as_number(), 2.0);
}

TEST(ServeSocket, MalformedJsonMidPipelineErrorsThatRequestOnly) {
  const ServeOptions sopts = tcp_options();
  const auto handle = start_serve(sopts);

  Client client(handle->endpoint());
  ASSERT_TRUE(client.send_raw(
      "{\"id\": 1, \"suite_name\": \"ghz_3\"}\n"
      "{\"id\": 2, this is not json}\n"
      "{\"id\": 3, \"suite_name\": \"ghz_3\"}\n"));
  std::map<std::string, std::string> by_id;
  for (int i = 0; i < 3; ++i) {
    std::string line;
    ASSERT_TRUE(client.read_line(&line));
    const Json doc = Json::parse(line);
    by_id[doc.find("id")->raw_number()] = line;
  }
  // The malformed line still correlates by its best-effort id (scraped
  // from the unparseable bytes) and the requests around it are untouched.
  EXPECT_NE(by_id.at("2").find("\"error\""), std::string::npos);
  EXPECT_NE(by_id.at("1").find("\"verified\": true"), std::string::npos);
  EXPECT_NE(by_id.at("3").find("\"verified\": true"), std::string::npos);

  // The connection survives malformed traffic: keep talking on it.
  ASSERT_TRUE(client.send(R"({"id": 4, "suite_name": "qft_8"})"));
  std::string line;
  ASSERT_TRUE(client.read_line(&line));
  EXPECT_NE(line.find("\"id\": 4"), std::string::npos);
}

TEST(ServeSocket, ClientDisconnectWithResponsesPendingDoesNotPoison) {
  const ServeOptions sopts = tcp_options();
  const auto handle = start_serve(sopts);

  {
    Client rude(handle->endpoint());
    // Distinct seeds bust the cache, so every request is real routing
    // work still in flight when the client vanishes.
    for (int i = 0; i < 12; ++i) {
      ASSERT_TRUE(rude.send("{\"id\": " + std::to_string(i) +
                            ", \"suite_name\": \"qft_8\", \"options\": "
                            "{\"seed\": " +
                            std::to_string(1000 + i) + "}}"));
    }
    rude.close();  // gone before any response lands
  }

  // The server keeps serving other clients correctly.
  Client normal(handle->endpoint());
  ASSERT_TRUE(normal.send(R"({"id": 1, "suite_name": "ghz_3"})"));
  std::string line;
  ASSERT_TRUE(normal.read_line(&line));
  EXPECT_NE(line.find("\"verified\": true"), std::string::npos) << line;
}

TEST(ServeSocket, IdleTimeoutClosesQuietConnections) {
  ServeOptions sopts = tcp_options();
  sopts.idle_timeout_ms = 200;
  const auto handle = start_serve(sopts);

  Client client(handle->endpoint());
  std::string line;
  ASSERT_TRUE(client.read_line(&line, /*timeout_ms=*/10000));
  EXPECT_NE(line.find("idle timeout"), std::string::npos) << line;
  EXPECT_TRUE(client.closed());

  // Activity resets the budget: a talking client is never reaped.
  Client busy(handle->endpoint());
  for (int i = 0; i < 3; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    ASSERT_TRUE(busy.send("{\"id\": " + std::to_string(i) +
                          ", \"suite_name\": \"ghz_3\"}"));
    ASSERT_TRUE(busy.read_line(&line));
    EXPECT_NE(line.find("\"result\""), std::string::npos);
  }
}

TEST(ServeSocket, ShutdownDrainsAcceptedRequests) {
  const ServeOptions sopts = tcp_options();
  auto handle = start_serve(sopts);

  Client client(handle->endpoint());
  constexpr int kRequests = 16;
  for (int i = 0; i < kRequests; ++i) {
    // Cache-busting seeds again: real work must be in flight.
    ASSERT_TRUE(client.send("{\"id\": " + std::to_string(i) +
                            ", \"suite_name\": \"qft_8\", \"options\": "
                            "{\"seed\": " +
                            std::to_string(2000 + i) + "}}"));
  }
  // Give the reader time to accept the burst (accepting is byte-shoveling,
  // orders of magnitude faster than the routing now in flight), then pull
  // the plug mid-work.
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  handle->shutdown();

  std::set<std::string> ids;
  std::string line;
  while (client.read_line(&line, /*timeout_ms=*/30000)) {
    ids.insert(Json::parse(line).find("id")->raw_number());
  }
  EXPECT_EQ(ids.size(), static_cast<std::size_t>(kRequests))
      << "accepted requests must be answered before shutdown closes";
  EXPECT_EQ(handle->join(), 0);
}

TEST(ServeSocket, BackpressureCapKeepsPipelinedBurstsLive) {
  ServeOptions sopts = tcp_options();
  sopts.max_inflight = 2;  // aggressive cap: the reader parks constantly
  const auto handle = start_serve(sopts);

  Client client(handle->endpoint());
  constexpr int kBurst = 24;
  std::string burst;
  for (int i = 0; i < kBurst; ++i) {
    burst += "{\"id\": " + std::to_string(i) +
             ", \"suite_name\": \"ghz_3\"}\n";
  }
  ASSERT_TRUE(client.send_raw(burst));
  std::set<std::string> ids;
  for (int i = 0; i < kBurst; ++i) {
    std::string line;
    ASSERT_TRUE(client.read_line(&line)) << "response " << i;
    ids.insert(Json::parse(line).find("id")->raw_number());
  }
  EXPECT_EQ(ids.size(), static_cast<std::size_t>(kBurst));
}

TEST(ServeSocketArgs, ParsesTransportFlags) {
  const ServeOptions opts = cli::parse_serve_args(
      {"--listen", "tcp:0.0.0.0:7777", "--max-inflight", "128",
       "--idle-timeout-ms", "30000", "--max-line-bytes", "65536"});
  EXPECT_EQ(opts.listen, "tcp:0.0.0.0:7777");
  EXPECT_EQ(opts.max_inflight, 128u);
  EXPECT_EQ(opts.idle_timeout_ms, 30000);
  EXPECT_EQ(opts.max_line_bytes, 65536u);

  // Defaults.
  const ServeOptions defaults = cli::parse_serve_args({});
  EXPECT_EQ(defaults.listen, "stdio");
  EXPECT_EQ(defaults.max_inflight, 64u);
  EXPECT_EQ(defaults.idle_timeout_ms, 0);

  // Bad specs fail at parse time, not at bind time.
  EXPECT_THROW(cli::parse_serve_args({"--listen", "carrier-pigeon:coop"}),
               UsageError);
  EXPECT_THROW(cli::parse_serve_args({"--listen", "tcp:host:99999"}),
               UsageError);
  EXPECT_THROW(cli::parse_serve_args({"--max-inflight", "0"}), UsageError);
  EXPECT_THROW(cli::parse_serve_args({"--max-line-bytes", "10"}),
               UsageError);
  EXPECT_THROW(
      cli::parse_serve_args({"--idle-timeout-ms", "99999999999"}),
      UsageError);

  EXPECT_NE(cli::serve_usage().find("--listen"), std::string::npos);
  EXPECT_NE(cli::serve_usage().find("--max-inflight"), std::string::npos);
}

TEST(ServeSocketArgs, StartServeRejectsStdioAndBadDevices) {
  ServeOptions opts;
  EXPECT_THROW(start_serve(opts), std::invalid_argument);  // stdio spec
  opts.listen = "tcp:127.0.0.1:0";
  opts.defaults.device = "no_such_device";
  EXPECT_THROW(start_serve(opts), std::exception);
}

}  // namespace
}  // namespace codar::service
