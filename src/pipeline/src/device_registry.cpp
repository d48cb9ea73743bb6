#include "codar/pipeline/device_registry.hpp"

namespace codar::pipeline {

const DeviceEntry* DeviceRegistry::find(std::string_view name) const {
  for (const DeviceEntry& e : entries_) {
    if (e.name == name) return &e;
    for (const std::string& alias : e.aliases) {
      if (alias == name) return &e;
    }
  }
  return nullptr;
}

const DeviceEntry* DeviceRegistry::resolve(const std::string& spec) const {
  return find(std::string_view(spec).substr(0, spec.find(':')));
}

arch::Device DeviceRegistry::make(const std::string& spec) const {
  const std::size_t colon = spec.find(':');
  const std::string head =
      colon == std::string::npos ? spec : spec.substr(0, colon);
  const std::string arg =
      colon == std::string::npos ? std::string() : spec.substr(colon + 1);
  const DeviceEntry* entry = resolve(spec);
  if (entry == nullptr) {
    throw UsageError("unknown device '" + spec + "' (expected " + specs() +
                     ")");
  }
  if (entry->takes_arg && arg.empty()) {
    throw UsageError("device '" + head + "' expects " + entry->spec +
                     ", got '" + spec + "'");
  }
  if (!entry->takes_arg && colon != std::string::npos) {
    throw UsageError("device '" + head + "' takes no parameter (expected " +
                     entry->spec + "), got '" + spec + "'");
  }
  return entry->make(spec, arg);
}

std::string DeviceRegistry::specs() const {
  std::string out;
  for (const DeviceEntry& e : entries_) {
    if (!out.empty()) out += '|';
    out += e.spec;
  }
  return out;
}

}  // namespace codar::pipeline
