#include "codar/pipeline/spec.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>

#include "codar/common/json.hpp"
#include "codar/pipeline/registry.hpp"

namespace codar::pipeline {

namespace {

using Kind = RoutingKnob::Kind;
using Field = RoutingKnob::Field;

constexpr RoutingKnob kKnobs[] = {
    {"initial", "--initial", Kind::kMapping,
     [](RoutingSpec& s) -> Field { return &s.mapping; }},
    {"seed", "--seed", Kind::kSeed,
     [](RoutingSpec& s) -> Field { return &s.seed; }},
    {"mapping_rounds", "--mapping-rounds", Kind::kInt,
     [](RoutingSpec& s) -> Field { return &s.mapping_rounds; }, 1},
    {"mapping_horizon", "--mapping-horizon", Kind::kInt,
     [](RoutingSpec& s) -> Field { return &s.mapping_horizon; }, 0},
    {"peephole", "--peephole", Kind::kOn,
     [](RoutingSpec& s) -> Field { return &s.peephole; }},
    {"verify", "--no-verify", Kind::kOff,
     [](RoutingSpec& s) -> Field { return &s.verify; }},
    {"timing", "--timing", Kind::kOn,
     [](RoutingSpec& s) -> Field { return &s.timing; }},
    {"context", "--no-context", Kind::kOff,
     [](RoutingSpec& s) -> Field { return &s.codar.context_aware; }},
    {"duration", "--no-duration", Kind::kOff,
     [](RoutingSpec& s) -> Field { return &s.codar.duration_aware; }},
    {"commutativity", "--no-commutativity", Kind::kOff,
     [](RoutingSpec& s) -> Field { return &s.codar.commutativity_aware; }},
    {"fine_priority", "--no-fine-priority", Kind::kOff,
     [](RoutingSpec& s) -> Field { return &s.codar.fine_priority; }},
    // Any int; <= 0 means unbounded.
    {"window", "--window", Kind::kInt,
     [](RoutingSpec& s) -> Field { return &s.codar.front_window; }},
    {"stagnation", "--stagnation", Kind::kInt,
     [](RoutingSpec& s) -> Field { return &s.codar.stagnation_threshold; },
     1},
    {"alpha", "--alpha", Kind::kNumber,
     [](RoutingSpec& s) -> Field { return &s.fid.alpha; }},
    {"beta", "--beta", Kind::kNumber,
     [](RoutingSpec& s) -> Field { return &s.fid.beta; }, 0},
    {"gamma", "--gamma", Kind::kNumber,
     [](RoutingSpec& s) -> Field { return &s.fid.gamma; }, 0},
};

/// Parses the whole of `text` as a T, or throws UsageError naming `flag`.
template <typename T>
T parse_text(const std::string& flag, const std::string& text,
             const char* what) {
  T result{};
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), result);
  if (ec != std::errc() || ptr != text.data() + text.size()) {
    throw UsageError(flag + " expects " + what + ", got '" + text + "'");
  }
  return result;
}

}  // namespace

void RoutingKnob::set(RoutingSpec& spec, const Value& value,
                      const std::string& name) const {
  const auto check_min = [&](double x) {
    if (x < min) {
      throw UsageError(name + " must be >= " + common::json_number(min));
    }
  };
  const Field target = field(spec);
  switch (kind) {
    case Kind::kOn:
    case Kind::kOff:
      *std::get<bool*>(target) = std::get<bool>(value);
      return;
    case Kind::kInt: {
      const long long n = std::get<long long>(value);
      check_min(static_cast<double>(n));
      if (n < std::numeric_limits<int>::min() ||
          n > std::numeric_limits<int>::max()) {
        throw UsageError(name + " is out of range");
      }
      *std::get<int*>(target) = static_cast<int>(n);
      return;
    }
    case Kind::kSeed:
      *std::get<std::uint64_t*>(target) =
          static_cast<std::uint64_t>(std::get<long long>(value));
      return;
    case Kind::kNumber: {
      // Weights must be real numbers: their bit patterns feed the route
      // cache's options fingerprint.
      const double x = std::get<double>(value);
      if (!std::isfinite(x)) {
        throw UsageError(name + " must be a finite number");
      }
      check_min(x);
      *std::get<double*>(target) = x;
      return;
    }
    case Kind::kMapping:
      *std::get<std::string*>(target) =
          MappingRegistry::instance().at(std::get<std::string>(value)).name;
      return;
  }
}

std::span<const RoutingKnob> routing_knobs() { return kKnobs; }

bool set_knob_flag(RoutingSpec& spec, const std::string& flag,
                   const FlagValue& value) {
  const auto knob =
      std::find_if(std::begin(kKnobs), std::end(kKnobs),
                   [&](const RoutingKnob& k) { return flag == k.flag; });
  if (knob == std::end(kKnobs)) return false;
  RoutingKnob::Value v;
  switch (knob->kind) {
    case Kind::kOn:
    case Kind::kOff:
      v = knob->kind == Kind::kOn;
      break;
    case Kind::kInt:
    case Kind::kSeed:
      v = parse_text<long long>(flag, value(), "an integer");
      break;
    case Kind::kNumber:
      v = parse_text<double>(flag, value(), "a finite number");
      break;
    case Kind::kMapping:
      v = value();
      break;
  }
  knob->set(spec, v, flag);
  return true;
}

}  // namespace codar::pipeline
