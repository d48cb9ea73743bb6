// Tests for the serve protocol layer: the dependency-free JSON parser and
// the request-line → RoutingSpec mapping.

#include "codar/service/protocol.hpp"

#include <chrono>
#include <limits>
#include <string>

#include <gtest/gtest.h>

#include "codar/common/json.hpp"
#include "support/time_budget.hpp"

namespace codar::service {
namespace {

using common::Json;
using common::JsonError;
using common::json_quote;

// -- Json -------------------------------------------------------------------

TEST(Json, ParsesScalars) {
  EXPECT_TRUE(Json::parse("null").is_null());
  EXPECT_EQ(Json::parse("true").as_bool(), true);
  EXPECT_EQ(Json::parse("false").as_bool(), false);
  EXPECT_DOUBLE_EQ(Json::parse("-2.5e2").as_number(), -250.0);
  EXPECT_EQ(Json::parse("17").raw_number(), "17");
  EXPECT_EQ(Json::parse("\"hi\\nthere\"").as_string(), "hi\nthere");
}

TEST(Json, ParsesNestedStructures) {
  const Json doc = Json::parse(
      R"({"a": [1, 2, {"b": "c"}], "d": {"e": null}, "f": ""})");
  ASSERT_TRUE(doc.is_object());
  const Json* a = doc.find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_EQ(a->items().size(), 3u);
  EXPECT_DOUBLE_EQ(a->items()[0].as_number(), 1.0);
  EXPECT_EQ(a->items()[2].find("b")->as_string(), "c");
  EXPECT_TRUE(doc.find("d")->find("e")->is_null());
  EXPECT_EQ(doc.find("f")->as_string(), "");
  EXPECT_EQ(doc.find("missing"), nullptr);
}

TEST(Json, DecodesUnicodeEscapes) {
  EXPECT_EQ(Json::parse(R"("\u0041")").as_string(), "A");
  EXPECT_EQ(Json::parse(R"("\u00e9")").as_string(), "\xC3\xA9");  // é
  // Surrogate pair: U+1F600.
  EXPECT_EQ(Json::parse(R"("\ud83d\ude00")").as_string(),
            "\xF0\x9F\x98\x80");
  EXPECT_THROW(Json::parse(R"("\ud83d")").as_string(), JsonError);
}

TEST(Json, RejectsMalformedInput) {
  EXPECT_THROW(Json::parse(""), JsonError);
  EXPECT_THROW(Json::parse("{"), JsonError);
  EXPECT_THROW(Json::parse("{\"a\": }"), JsonError);
  EXPECT_THROW(Json::parse("[1,]"), JsonError);
  EXPECT_THROW(Json::parse("nul"), JsonError);
  EXPECT_THROW(Json::parse("01x"), JsonError);
  // RFC 8259 forbids leading zeros; ids echo verbatim so "007" would
  // poison response lines.
  EXPECT_THROW(Json::parse("007"), JsonError);
  EXPECT_THROW(Json::parse("-01"), JsonError);
  EXPECT_EQ(Json::parse("0").raw_number(), "0");
  EXPECT_DOUBLE_EQ(Json::parse("0.5").as_number(), 0.5);
  EXPECT_THROW(Json::parse("\"unterminated"), JsonError);
  EXPECT_THROW(Json::parse("{} extra"), JsonError);
  // Control characters must be escaped.
  EXPECT_THROW(Json::parse("\"a\nb\""), JsonError);
}

TEST(Json, DepthCapStopsHostileNesting) {
  const std::string bomb(10000, '[');
  EXPECT_THROW(Json::parse(bomb), JsonError);
}

TEST(Json, QuoteEscapesControlCharacters) {
  EXPECT_EQ(json_quote("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
  EXPECT_EQ(json_quote(std::string_view("\x01", 1)), "\"\\u0001\"");
}

// -- parse_request ----------------------------------------------------------

pipeline::RoutingSpec defaults() {
  pipeline::RoutingSpec opts;
  opts.device = "tokyo";
  return opts;
}

TEST(ParseRequest, MinimalSuiteRequest) {
  const ServeRequest req =
      parse_request(R"({"id": 7, "suite_name": "qft_8"})", defaults());
  EXPECT_EQ(req.kind, ServeRequest::Kind::kRoute);
  EXPECT_EQ(req.id_json, "7");
  EXPECT_EQ(req.suite_name, "qft_8");
  EXPECT_TRUE(req.qasm.empty());
  EXPECT_EQ(req.opts.device, "tokyo");  // inherited default
}

TEST(ParseRequest, ExtrasOptionIsUnknown) {
  // No pass reads a free-form knob: "extras" is an unknown option like any
  // other key outside the knob table, in whatever shape it comes.
  for (const char* extras :
       {R"({"beam": "8"})", R"({})", R"("beam=8")", R"(null)"}) {
    try {
      parse_request(std::string(R"({"suite_name": "ghz_3", "options": )") +
                        R"({"extras": )" + extras + "}}",
                    defaults());
      FAIL() << "accepted extras " << extras;
    } catch (const ProtocolError& e) {
      EXPECT_STREQ(e.what(), "unknown option 'extras'") << extras;
    }
  }
}

TEST(ParseRequest, ManyOptionKeysParseInBoundedTime) {
  // The reader thread parses every request line; 200k option keys (a
  // 3.5 MB line, under the default 8 MiB cap) must not cost quadratic
  // time. A repeated key sets its row again, so the last value wins.
  constexpr int kKeys = 200000;
  std::string line = R"({"suite_name": "ghz_3", "options": {)";
  for (int i = kKeys - 1; i >= 0; --i) {
    line += "\"window\": " + std::to_string(i);
    line += i > 0 ? ", " : "}}";
  }
  const auto start = std::chrono::steady_clock::now();
  const ServeRequest req = parse_request(line, defaults());
  const std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - start;
  EXPECT_LT(elapsed.count(), testing::kBoundedWorkSeconds);
  EXPECT_EQ(req.opts.codar.front_window, 0);
}

TEST(ParseRequest, FidWeightOptionsParseAndValidate) {
  const ServeRequest req = parse_request(
      R"({"suite_name": "ghz_3", "router": "codar-fid",
          "options": {"alpha": 1.5, "beta": 0, "gamma": 2.25}})",
      defaults());
  EXPECT_EQ(req.opts.router, "codar-fid");
  EXPECT_EQ(req.opts.fid.alpha, 1.5);
  EXPECT_EQ(req.opts.fid.beta, 0.0);
  EXPECT_EQ(req.opts.fid.gamma, 2.25);
  // Numbers only; beta/gamma must be >= 0.
  EXPECT_THROW(parse_request(R"({"suite_name": "ghz_3",
                                 "options": {"beta": "5"}})",
                             defaults()),
               ProtocolError);
  EXPECT_THROW(parse_request(R"({"suite_name": "ghz_3",
                                 "options": {"gamma": -1}})",
                             defaults()),
               ProtocolError);
}

TEST(ParseRequest, MappingKnobOptionsParseAndValidate) {
  const ServeRequest req = parse_request(
      R"({"suite_name": "ghz_3",
          "options": {"mapping_rounds": 1, "mapping_horizon": 0}})",
      defaults());
  EXPECT_EQ(req.opts.mapping_rounds, 1);
  EXPECT_EQ(req.opts.mapping_horizon, 0);
  EXPECT_EQ(parse_request(R"({"suite_name": "ghz_3",
                              "options": {"mapping_horizon": 250}})",
                          defaults())
                .opts.mapping_horizon,
            250);
  // Zero rounds would fail inside routing and send the server's internal
  // message back to the client: reject it as a bad request instead.
  for (const char* options :
       {R"({"mapping_rounds": 0})", R"({"mapping_rounds": -2})",
        R"({"mapping_rounds": 1e12})", R"({"mapping_horizon": -1})",
        R"({"mapping_horizon": 1.5})", R"({"mapping_horizon": "500"})",
        R"({"mapping_horizon": 4294967296})"}) {
    EXPECT_THROW(parse_request(std::string(R"({"suite_name": "ghz_3", )") +
                                   R"("options": )" + options + "}",
                               defaults()),
                 ProtocolError)
        << options;
  }
}

TEST(ParseRequest, WindowOutsideIntIsRejected) {
  // 4294967297 used to wrap to window 1, and a later `"window": 1`
  // request was then answered from its cache entry.
  for (const char* options :
       {R"({"window": 4294967297})", R"({"window": 2147483648})",
        R"({"window": -2147483649})", R"({"window": 1.5})"}) {
    EXPECT_THROW(parse_request(std::string(R"({"suite_name": "ghz_3", )") +
                                   R"("options": )" + options + "}",
                               defaults()),
                 ProtocolError)
        << options;
  }
  EXPECT_EQ(parse_request(R"({"suite_name": "ghz_3",
                              "options": {"window": -2147483648}})",
                          defaults())
                .opts.codar.front_window,
            std::numeric_limits<int>::min());
}

TEST(ParseRequest, FullRouteRequest) {
  const ServeRequest req = parse_request(
      R"({"id": "abc", "qasm": "OPENQASM 2.0;", "device": "linear:5",
          "router": "sabre", "name": "mine",
          "options": {"initial": "greedy", "seed": 3, "verify": false,
                      "window": 42, "context": false}})",
      defaults());
  EXPECT_EQ(req.id_json, "\"abc\"");
  EXPECT_EQ(req.qasm, "OPENQASM 2.0;");
  EXPECT_EQ(req.name, "mine");
  EXPECT_EQ(req.opts.device, "linear:5");
  EXPECT_EQ(req.opts.router, "sabre");
  EXPECT_EQ(req.opts.mapping, "greedy");
  EXPECT_EQ(req.opts.seed, 3u);
  EXPECT_FALSE(req.opts.verify);
  EXPECT_EQ(req.opts.codar.front_window, 42);
  EXPECT_FALSE(req.opts.codar.context_aware);
  EXPECT_TRUE(req.opts.codar.duration_aware);  // untouched default
}

TEST(ParseRequest, InlineDeviceObject) {
  const ServeRequest req = parse_request(
      R"({"id": 4, "suite_name": "ghz_3",
          "device": {"name": "inline pair", "qubits": 2,
                     "edges": [[0, 1]],
                     "calibration": {"edges": [
                       {"edge": [0, 1], "duration_2q": 7}]}}})",
      defaults());
  ASSERT_NE(req.inline_device, nullptr);
  EXPECT_EQ(req.inline_device->graph.num_qubits(), 2);
  EXPECT_EQ(req.inline_device->calibration.duration_2q(0, 1), 7);
  // The device spec string becomes the display name only.
  EXPECT_EQ(req.opts.device, "inline pair");

  // A spec string keeps the old behavior (no inline device).
  const ServeRequest by_name =
      parse_request(R"({"suite_name": "ghz_3", "device": "q16"})",
                    defaults());
  EXPECT_EQ(by_name.inline_device, nullptr);
  EXPECT_EQ(by_name.opts.device, "q16");

  // Filesystem-backed specs are refused on (untrusted) request lines:
  // a client must not be able to make the server read arbitrary paths.
  try {
    parse_request(R"({"suite_name": "ghz_3", "device": "file:/etc/shadow"})",
                  defaults());
    FAIL() << "expected ProtocolError";
  } catch (const ProtocolError& e) {
    EXPECT_NE(std::string(e.what()).find("inline device object"),
              std::string::npos)
        << e.what();
  }

  // Malformed inline devices are per-request protocol errors, with the
  // same strict schema as `--device file:`.
  EXPECT_THROW(
      parse_request(R"({"suite_name": "ghz_3", "device": 7})", defaults()),
      ProtocolError);
  EXPECT_THROW(parse_request(R"({"suite_name": "ghz_3",
                                 "device": {"qubits": 2}})",
                             defaults()),
               ProtocolError);
  EXPECT_THROW(parse_request(R"({"suite_name": "ghz_3",
                                 "device": {"qubits": 2, "edges": [[0, 1]],
                                            "wat": 1}})",
                             defaults()),
               ProtocolError);
}

TEST(ParseRequest, StatsCommand) {
  const ServeRequest req =
      parse_request(R"({"id": 1, "cmd": "stats"})", defaults());
  EXPECT_EQ(req.kind, ServeRequest::Kind::kStats);
  EXPECT_EQ(req.id_json, "1");

  // Control requests are just as strictly validated as route requests:
  // stray route payload is a client bug, not something to drop.
  EXPECT_THROW(
      parse_request(R"({"cmd": "stats", "qasm": "garbage"})", defaults()),
      ProtocolError);
  EXPECT_THROW(
      parse_request(R"({"cmd": "stats", "device": "q16"})", defaults()),
      ProtocolError);
}

TEST(ParseRequest, RejectsBadRequests) {
  const pipeline::RoutingSpec d = defaults();
  EXPECT_THROW(parse_request("not json", d), ProtocolError);
  EXPECT_THROW(parse_request("[1,2]", d), ProtocolError);
  // Needs exactly one circuit source.
  EXPECT_THROW(parse_request(R"({"id": 1})", d), ProtocolError);
  EXPECT_THROW(
      parse_request(R"({"qasm": "x", "suite_name": "y"})", d),
      ProtocolError);
  EXPECT_THROW(parse_request(R"({"cmd": "reboot"})", d), ProtocolError);
  EXPECT_THROW(
      parse_request(R"({"qasm": "x", "router": "qiskit"})", d),
      ProtocolError);
  EXPECT_THROW(
      parse_request(R"({"qasm": "x", "options": {"wat": 1}})", d),
      ProtocolError);
  EXPECT_THROW(
      parse_request(R"({"qasm": "x", "options": {"seed": "high"}})", d),
      ProtocolError);
  EXPECT_THROW(
      parse_request(R"({"qasm": "x", "options": {"stagnation": 0}})", d),
      ProtocolError);
  EXPECT_THROW(parse_request(R"({"id": [], "qasm": "x"})", d),
               ProtocolError);
  // Strict top-level schema: a typo'd key must not silently fall back to
  // server defaults.
  EXPECT_THROW(
      parse_request(R"({"id": 1, "qasm": "x", "devics": "q16"})", d),
      ProtocolError);
  EXPECT_THROW(
      parse_request(R"({"id": 1, "suite_name": "x", "routers": "sabre"})", d),
      ProtocolError);
  // Duplicate keys are ambiguous (find() would keep only the first).
  EXPECT_THROW(
      parse_request(R"({"id": 1, "qasm": "a", "qasm": "b"})", d),
      ProtocolError);
  EXPECT_THROW(
      parse_request(R"({"id": 1, "id": 2, "suite_name": "x"})", d),
      ProtocolError);
}

}  // namespace
}  // namespace codar::service
