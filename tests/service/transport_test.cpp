// Transport-layer tests: listen-spec parsing, TCP and Unix-domain
// listener/connection round trips, ephemeral-port resolution, read
// timeouts, close() waking accept(), write-after-disconnect failure, and
// short responses not waiting for a lazily acknowledging client.

#include "codar/service/transport.hpp"

#include <chrono>
#include <cstdio>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>

#include <gtest/gtest.h>

#include <unistd.h>

namespace codar::service {
namespace {

TEST(ListenSpecTest, ParsesStdioTcpAndUnix) {
  EXPECT_EQ(parse_listen_spec("stdio").kind, ListenSpec::Kind::kStdio);

  const ListenSpec tcp = parse_listen_spec("tcp:127.0.0.1:7777");
  EXPECT_EQ(tcp.kind, ListenSpec::Kind::kTcp);
  EXPECT_EQ(tcp.host, "127.0.0.1");
  EXPECT_EQ(tcp.port, 7777);
  EXPECT_EQ(to_string(tcp), "tcp:127.0.0.1:7777");

  // IPv6 literals keep their colons: the port is after the LAST colon.
  const ListenSpec v6 = parse_listen_spec("tcp:::1:80");
  EXPECT_EQ(v6.host, "::1");
  EXPECT_EQ(v6.port, 80);

  const ListenSpec unix_spec = parse_listen_spec("unix:/tmp/codar.sock");
  EXPECT_EQ(unix_spec.kind, ListenSpec::Kind::kUnix);
  EXPECT_EQ(unix_spec.path, "/tmp/codar.sock");
  EXPECT_EQ(to_string(unix_spec), "unix:/tmp/codar.sock");
}

TEST(ListenSpecTest, RejectsMalformedSpecs) {
  EXPECT_THROW(parse_listen_spec(""), std::invalid_argument);
  EXPECT_THROW(parse_listen_spec("http:localhost:80"),
               std::invalid_argument);
  EXPECT_THROW(parse_listen_spec("tcp:localhost"), std::invalid_argument);
  EXPECT_THROW(parse_listen_spec("tcp::8080"), std::invalid_argument);
  EXPECT_THROW(parse_listen_spec("tcp:localhost:"), std::invalid_argument);
  EXPECT_THROW(parse_listen_spec("tcp:localhost:notaport"),
               std::invalid_argument);
  EXPECT_THROW(parse_listen_spec("tcp:localhost:65536"),
               std::invalid_argument);
  EXPECT_THROW(parse_listen_spec("tcp:localhost:-1"),
               std::invalid_argument);
  EXPECT_THROW(parse_listen_spec("unix:"), std::invalid_argument);
  // sun_path is 108 bytes including the terminator.
  EXPECT_THROW(parse_listen_spec("unix:/" + std::string(200, 'x')),
               std::invalid_argument);
}

TEST(ListenSpecTest, StdioHasNoListener) {
  EXPECT_THROW(make_listener(parse_listen_spec("stdio")),
               std::invalid_argument);
}

/// Reads exactly `n` bytes (blocking, generous timeout) or fails.
std::string read_exact(Connection& conn, std::size_t n) {
  std::string out;
  char buf[4096];
  while (out.size() < n) {
    std::size_t got = 0;
    const ReadStatus status =
        conn.read_some(buf, std::min(sizeof buf, n - out.size()), &got,
                       /*timeout_ms=*/5000);
    if (status != ReadStatus::kData) {
      ADD_FAILURE() << "read_some status " << static_cast<int>(status)
                    << " after " << out.size() << " of " << n << " bytes";
      return out;
    }
    out.append(buf, got);
  }
  return out;
}

void round_trip_over(Listener& listener) {
  // Client connects and speaks first; the server side echoes back.
  std::unique_ptr<Connection> client;
  std::thread connector([&client, endpoint = listener.endpoint()] {
    client = connect_endpoint(endpoint, /*timeout_ms=*/5000);
  });
  std::unique_ptr<Connection> served = listener.accept();
  connector.join();
  ASSERT_NE(served, nullptr);
  ASSERT_NE(client, nullptr);
  EXPECT_FALSE(served->peer().empty());

  ASSERT_TRUE(client->write_all("hello over the wire\n"));
  EXPECT_EQ(read_exact(*served, 20), "hello over the wire\n");
  ASSERT_TRUE(served->write_all("echo\n"));
  EXPECT_EQ(read_exact(*client, 5), "echo\n");
}

TEST(TransportTest, TcpEphemeralPortRoundTrip) {
  const auto listener = make_listener(parse_listen_spec("tcp:127.0.0.1:0"));
  // Port 0 must resolve to a real connectable port in endpoint().
  const std::string endpoint = listener->endpoint();
  EXPECT_EQ(endpoint.rfind("tcp:127.0.0.1:", 0), 0u) << endpoint;
  EXPECT_NE(endpoint, "tcp:127.0.0.1:0");
  round_trip_over(*listener);
}

TEST(TransportTest, TcpShortResponsesDoNotWaitForDelayedAcks) {
  // A default client delays its ACKs (40 ms on Linux once the connection
  // leaves quick-ACK mode). If the served side ran Nagle's algorithm, the
  // second of two short lines written back to back would wait for the ACK
  // of the first, so every round would take about 40 ms.
  constexpr int kWarmupRounds = 40;
  constexpr int kRounds = 20;
  const auto listener = make_listener(parse_listen_spec("tcp:127.0.0.1:0"));
  std::unique_ptr<Connection> client;
  std::thread connector([&client, endpoint = listener->endpoint()] {
    client = connect_endpoint(endpoint, /*timeout_ms=*/5000);
  });
  const std::unique_ptr<Connection> served = listener->accept();
  connector.join();
  ASSERT_NE(served, nullptr);
  ASSERT_NE(client, nullptr);

  std::thread responder([&served] {
    for (int i = 0; i < kWarmupRounds + kRounds; ++i) {
      if (read_exact(*served, 2) != "?\n") return;
      if (!served->write_all("a\n") || !served->write_all("b\n")) return;
    }
  });
  auto round = [&client] {
    EXPECT_TRUE(client->write_all("?\n"));
    EXPECT_EQ(read_exact(*client, 4), "a\nb\n");
  };
  for (int i = 0; i < kWarmupRounds; ++i) round();
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < kRounds; ++i) round();
  const auto elapsed = std::chrono::steady_clock::now() - start;
  responder.join();
  EXPECT_LT(elapsed, kRounds * std::chrono::milliseconds(40) / 4)
      << "short responses waited for the client's delayed ACKs";
}

TEST(TransportTest, UnixSocketRoundTripAndStaleFileReuse) {
  const std::string path =
      "/tmp/codar_transport_test_" + std::to_string(::getpid()) + ".sock";
  const ListenSpec spec = parse_listen_spec("unix:" + path);
  {
    const auto listener = make_listener(spec);
    EXPECT_EQ(listener->endpoint(), "unix:" + path);
    round_trip_over(*listener);
  }
  // The socket file is unlinked on teardown, and a stale file (simulated
  // by an earlier bind) never blocks a rebind.
  const auto again = make_listener(spec);
  round_trip_over(*again);
}

TEST(TransportTest, ReadTimesOutOnIdleConnection) {
  const auto listener = make_listener(parse_listen_spec("tcp:127.0.0.1:0"));
  std::unique_ptr<Connection> client;
  std::thread connector([&client, endpoint = listener->endpoint()] {
    client = connect_endpoint(endpoint);
  });
  const std::unique_ptr<Connection> served = listener->accept();
  connector.join();
  ASSERT_NE(served, nullptr);

  char buf[16];
  std::size_t got = 1;
  EXPECT_EQ(served->read_some(buf, sizeof buf, &got, /*timeout_ms=*/50),
            ReadStatus::kTimeout);
  EXPECT_EQ(got, 0u);
}

TEST(TransportTest, CloseWakesBlockedAccept) {
  const auto listener = make_listener(parse_listen_spec("tcp:127.0.0.1:0"));
  std::unique_ptr<Connection> accepted;
  bool returned = false;
  std::thread acceptor([&] {
    accepted = listener->accept();
    returned = true;
  });
  listener->close();
  acceptor.join();
  EXPECT_TRUE(returned);
  EXPECT_EQ(accepted, nullptr);
  // close() is sticky and idempotent.
  listener->close();
  EXPECT_EQ(listener->accept(), nullptr);
}

TEST(TransportTest, WriteToDisconnectedPeerFails) {
  const auto listener = make_listener(parse_listen_spec("tcp:127.0.0.1:0"));
  std::unique_ptr<Connection> client;
  std::thread connector([&client, endpoint = listener->endpoint()] {
    client = connect_endpoint(endpoint);
  });
  std::unique_ptr<Connection> served = listener->accept();
  connector.join();
  ASSERT_NE(served, nullptr);
  client.reset();  // peer disconnects

  // Socket buffering may absorb the first writes, but the failure must
  // surface (as a false return, never SIGPIPE) within a bounded volume,
  // and then stick.
  const std::string chunk(64 * 1024, 'x');
  bool failed = false;
  for (int i = 0; i < 64 && !failed; ++i) {
    failed = !served->write_all(chunk);
  }
  EXPECT_TRUE(failed);
  EXPECT_FALSE(served->write_all("more"));
}

TEST(TransportTest, StreamConnectionReadsWritesAndEofs) {
  std::istringstream in("line one\nline two");
  std::ostringstream out;
  const auto conn = make_stream_connection(in, out);
  EXPECT_EQ(conn->peer(), "stdio");

  std::string all;
  char buf[8];  // small on purpose: forces multiple chunked reads
  for (;;) {
    std::size_t got = 0;
    const ReadStatus status = conn->read_some(buf, sizeof buf, &got, -1);
    if (status == ReadStatus::kEof) break;
    ASSERT_EQ(status, ReadStatus::kData);
    ASSERT_GE(got, 1u);
    all.append(buf, got);
  }
  EXPECT_EQ(all, "line one\nline two");

  EXPECT_TRUE(conn->write_all("response\n"));
  EXPECT_EQ(out.str(), "response\n");
}

TEST(TransportTest, ConnectToUnboundEndpointThrows) {
  // A freshly bound-then-destroyed listener leaves a port nobody listens
  // on; connecting must throw, not hang.
  std::string endpoint;
  {
    const auto listener =
        make_listener(parse_listen_spec("tcp:127.0.0.1:0"));
    endpoint = listener->endpoint();
  }
  EXPECT_THROW(connect_endpoint(endpoint, /*timeout_ms=*/2000),
               std::runtime_error);
  EXPECT_THROW(connect_endpoint("unix:/tmp/codar_no_such_socket.sock"),
               std::runtime_error);
}

}  // namespace
}  // namespace codar::service
