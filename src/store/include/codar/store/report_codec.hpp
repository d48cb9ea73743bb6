#pragma once

// Binary serialization of pipeline::RouteReport for the persistent route
// cache. The codec must round-trip every routed result *exactly* — the
// serve acceptance test compares warm-start responses byte-for-byte
// against the cold run — so everything is fixed-width little-endian:
// integers as u64, doubles as their IEEE-754 bit pattern, strings
// length-prefixed. The wall times (route_us, stage_us) are left out: they
// describe the one call that routed, not the result, and a cache hit
// reports none. A leading format-version word lets a field change
// invalidate old records cleanly (decode fails, the entry re-routes and
// is re-appended in the new format) instead of misreading them.

#include <string>
#include <string_view>

#include "codar/pipeline/pipeline.hpp"

namespace codar::store {

/// Current encoding version. Bump on any change to the encoded fields;
/// old records then decode as "unreadable" and simply re-route. Version 2
/// dropped route_us and stage_us.
inline constexpr std::uint32_t kReportCodecVersion = 2;

/// Serializes `report`: every field but the wall times (routed_qasm
/// included).
std::string encode_report(const pipeline::RouteReport& report);

/// Decodes into `*report`, whose route_us is 0 and stage_us empty.
/// Returns false (leaving `*report` unspecified) on a version mismatch,
/// truncation, or trailing garbage — never throws on malformed input.
bool decode_report(std::string_view bytes, pipeline::RouteReport* report);

}  // namespace codar::store
