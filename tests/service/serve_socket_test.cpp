// Socket-transport tests for `codar serve`: a multi-client pipelined TCP
// storm whose per-request stats are byte-identical to the batch driver,
// Unix-domain sockets, per-connection backpressure liveness, and protocol
// robustness at the transport boundary — oversized frames, split lines,
// malformed JSON mid-pipeline, clients vanishing with responses pending,
// idle timeouts and drain-on-shutdown. The TSan CI lane runs these to put
// real contention on the connection path.

#include <chrono>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "codar/cli/driver.hpp"
#include "codar/cli/options.hpp"
#include "codar/common/json.hpp"
#include "codar/pipeline/device_registry.hpp"
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
  // key routes exactly once across all clients).
  const ServeOptions sopts = tcp_options();
  const auto handle = start_serve(sopts);

  const std::vector<workloads::BenchmarkSpec> suite =
      workloads::benchmark_suite();
  const arch::Device device =
      pipeline::DeviceRegistry::instance().make("enfield");
  const std::vector<RouteReport> reference =
      cli::run_batch(suite, device, sopts.defaults);

  constexpr int kClients = 8;
  std::vector<std::vector<std::string>> results(kClients);
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      Client client(handle->endpoint());
      // Pipeline the whole suite in one burst — more requests than the
      // default --max-inflight, so the server's backpressure path runs.
      for (std::size_t i = 0; i < suite.size(); ++i) {
        ASSERT_TRUE(client.send(
            "{\"id\": " + std::to_string(i) + ", \"suite_name\": " +
            json_quote(suite[i].name) + "}"));
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
