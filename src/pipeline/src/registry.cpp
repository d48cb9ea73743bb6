#include "codar/pipeline/registry.hpp"

#include <charconv>
#include <cmath>
#include <limits>

#include "builtins.hpp"

namespace codar::pipeline {

RouterRegistry& RouterRegistry::instance() {
  // Magic static: built (and the builtins registered) exactly once, in a
  // thread-safe way, on first use.
  static RouterRegistry& reg = *[] {
    auto* r = new RouterRegistry();
    detail::register_builtin_routers(*r);
    return r;
  }();
  return reg;
}

MappingRegistry& MappingRegistry::instance() {
  static MappingRegistry& reg = *[] {
    auto* r = new MappingRegistry();
    detail::register_builtin_mappings(*r);
    return r;
  }();
  return reg;
}

long long knob_int(const std::string& flag, const std::string& value) {
  long long result = 0;
  const auto [ptr, ec] =
      std::from_chars(value.data(), value.data() + value.size(), result);
  if (ec != std::errc() || ptr != value.data() + value.size()) {
    throw UsageError(flag + " expects an integer, got '" + value + "'");
  }
  return result;
}

int knob_at_least(const std::string& flag, const std::string& value,
                  int min) {
  const long long n = knob_int(flag, value);
  if (n < min) {
    throw UsageError(flag + " must be >= " + std::to_string(min));
  }
  if (n > std::numeric_limits<int>::max()) {
    throw UsageError(flag + " is out of range");
  }
  return static_cast<int>(n);
}

double knob_double(const std::string& flag, const std::string& value) {
  double result = 0.0;
  const auto [ptr, ec] =
      std::from_chars(value.data(), value.data() + value.size(), result);
  // from_chars accepts "inf"/"nan" spellings; weight knobs must be real
  // numbers (their bit patterns feed the options fingerprint).
  if (ec != std::errc() || ptr != value.data() + value.size() ||
      !std::isfinite(result)) {
    throw UsageError(flag + " expects a finite number, got '" + value + "'");
  }
  return result;
}

}  // namespace codar::pipeline
