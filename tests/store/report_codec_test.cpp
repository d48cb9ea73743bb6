// Report codec tests: the persistent route cache serves decoded reports in
// place of re-routing, and the serve acceptance test compares warm
// responses byte-for-byte against the cold run — so encode/decode must
// round-trip every RouteReport field *exactly* (doubles included), and
// decode must reject anything it cannot fully account for.

#include "codar/store/report_codec.hpp"

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>

#include <gtest/gtest.h>

namespace codar::store {
namespace {

pipeline::RouteReport full_report() {
  pipeline::RouteReport r;
  r.name = "qft_8";
  r.error = "";
  r.verified = true;
  r.verify_skipped = false;
  r.qubits = 8;
  r.gates_in = 120;
  r.gates_out = 157;
  r.gates_routed = 118;
  r.barriers = 2;
  r.swaps = 37;
  r.forced_swaps = 5;
  r.escape_swaps = 1;
  r.cycles = 64;
  r.route_us = 1234;
  r.makespan = 987654;
  r.depth_in = 4200;
  r.depth_out = 6900;
  r.log_esp = -3.141592653589793;
  r.routed_qasm = "OPENQASM 2.0;\ninclude \"qelib1.inc\";\n";
  r.stage_us = {{"parse", 12}, {"route", 1200}, {"verify", 22}};
  return r;
}

void expect_equal(const pipeline::RouteReport& a,
                  const pipeline::RouteReport& b) {
  EXPECT_EQ(a.name, b.name);
  EXPECT_EQ(a.error, b.error);
  EXPECT_EQ(a.verified, b.verified);
  EXPECT_EQ(a.verify_skipped, b.verify_skipped);
  EXPECT_EQ(a.qubits, b.qubits);
  EXPECT_EQ(a.gates_in, b.gates_in);
  EXPECT_EQ(a.gates_out, b.gates_out);
  EXPECT_EQ(a.gates_routed, b.gates_routed);
  EXPECT_EQ(a.barriers, b.barriers);
  EXPECT_EQ(a.swaps, b.swaps);
  EXPECT_EQ(a.forced_swaps, b.forced_swaps);
  EXPECT_EQ(a.escape_swaps, b.escape_swaps);
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.depth_in, b.depth_in);
  EXPECT_EQ(a.depth_out, b.depth_out);
  // Bit-exact, not approximately equal: the JSON layer re-renders this
  // double and the warm response must match the cold one byte-for-byte.
  EXPECT_EQ(std::signbit(a.log_esp), std::signbit(b.log_esp));
  EXPECT_EQ(a.log_esp, b.log_esp);
  EXPECT_EQ(a.routed_qasm, b.routed_qasm);
}

void put_u64(std::string* out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out->push_back(static_cast<char>(v >> (8 * i)));
}

void put_str(std::string* out, const std::string& s) {
  put_u64(out, s.size());
  *out += s;
}

/// `r` in the version-1 layout, which also stored route_us (after cycles)
/// and stage_us (a count, then name and microseconds per stage, last).
std::string encode_v1(const pipeline::RouteReport& r) {
  std::string out;
  put_u64(&out, 1);
  put_str(&out, r.name);
  put_str(&out, r.error);
  put_u64(&out, (r.verified ? 1u : 0u) | (r.verify_skipped ? 2u : 0u));
  for (const std::uint64_t v :
       {static_cast<std::uint64_t>(r.qubits), std::uint64_t{r.gates_in},
        std::uint64_t{r.gates_out}, std::uint64_t{r.gates_routed},
        std::uint64_t{r.barriers}, std::uint64_t{r.swaps},
        std::uint64_t{r.forced_swaps}, std::uint64_t{r.escape_swaps},
        std::uint64_t{r.cycles}, std::uint64_t{r.route_us},
        static_cast<std::uint64_t>(r.makespan),
        static_cast<std::uint64_t>(r.depth_in),
        static_cast<std::uint64_t>(r.depth_out),
        std::bit_cast<std::uint64_t>(r.log_esp)}) {
    put_u64(&out, v);
  }
  put_str(&out, r.routed_qasm);
  put_u64(&out, r.stage_us.size());
  for (const pipeline::StageTiming& t : r.stage_us) {
    put_str(&out, t.stage);
    put_u64(&out, t.us);
  }
  return out;
}

TEST(ReportCodec, RoundTripsEveryField) {
  const pipeline::RouteReport original = full_report();
  pipeline::RouteReport decoded = full_report();  // start dirty
  ASSERT_TRUE(decode_report(encode_report(original), &decoded));
  expect_equal(original, decoded);
  // The wall times describe the one call that routed; a record keeps none.
  EXPECT_EQ(decoded.route_us, 0u);
  EXPECT_TRUE(decoded.stage_us.empty());
  // A version-1 record, which did keep them, re-routes instead.
  EXPECT_FALSE(decode_report(encode_v1(original), &decoded));
}

TEST(ReportCodec, RoundTripsDefaultReport) {
  pipeline::RouteReport decoded = full_report();  // start dirty
  ASSERT_TRUE(decode_report(encode_report(pipeline::RouteReport{}), &decoded));
  expect_equal(pipeline::RouteReport{}, decoded);
}

TEST(ReportCodec, RoundTripsAwkwardDoubles) {
  for (const double esp :
       {0.0, -0.0, -745.133, std::numeric_limits<double>::lowest(),
        std::numeric_limits<double>::denorm_min(),
        -std::numeric_limits<double>::infinity()}) {
    pipeline::RouteReport r;
    r.log_esp = esp;
    pipeline::RouteReport decoded;
    ASSERT_TRUE(decode_report(encode_report(r), &decoded));
    // Compare the bit patterns so -0.0 vs 0.0 and infinities all count.
    EXPECT_EQ(std::signbit(r.log_esp), std::signbit(decoded.log_esp));
    EXPECT_TRUE(r.log_esp == decoded.log_esp ||
                (std::isnan(r.log_esp) && std::isnan(decoded.log_esp)));
  }
}

TEST(ReportCodec, RoundTripsEmbeddedNulAndNewlines) {
  pipeline::RouteReport r;
  r.name = std::string("a\0b\nc", 5);
  r.routed_qasm = std::string(1000, '\0');
  pipeline::RouteReport decoded;
  ASSERT_TRUE(decode_report(encode_report(r), &decoded));
  expect_equal(r, decoded);
}

TEST(ReportCodec, RejectsVersionMismatch) {
  std::string bytes = encode_report(full_report());
  bytes[0] = static_cast<char>(bytes[0] + 1);  // bump the version word
  pipeline::RouteReport decoded;
  EXPECT_FALSE(decode_report(bytes, &decoded));
}

TEST(ReportCodec, RejectsEveryTruncation) {
  const std::string bytes = encode_report(full_report());
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    pipeline::RouteReport decoded;
    EXPECT_FALSE(decode_report(std::string_view(bytes).substr(0, cut),
                               &decoded))
        << "accepted a record truncated to " << cut << " bytes";
  }
}

TEST(ReportCodec, RejectsTrailingGarbage) {
  std::string bytes = encode_report(full_report());
  bytes += '\0';
  pipeline::RouteReport decoded;
  EXPECT_FALSE(decode_report(bytes, &decoded));
}

TEST(ReportCodec, RejectsHostileLengthPrefix) {
  // A corrupted string length must fail cleanly, not allocate 2^64 bytes.
  pipeline::RouteReport r;
  r.name = "x";
  std::string bytes = encode_report(r);
  // The name length is the first field after the u64 version word.
  for (std::size_t i = 8; i < 16 && i < bytes.size(); ++i) {
    bytes[i] = static_cast<char>(0xff);
  }
  pipeline::RouteReport decoded;
  EXPECT_FALSE(decode_report(bytes, &decoded));
}

}  // namespace
}  // namespace codar::store
