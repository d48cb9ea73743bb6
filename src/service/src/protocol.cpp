#include "codar/service/protocol.hpp"

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <string>

#include "codar/arch/device_json.hpp"
#include "codar/common/fnv.hpp"
#include "codar/common/json.hpp"
#include "codar/pipeline/device_registry.hpp"
#include "codar/pipeline/registry.hpp"

namespace codar::service {

namespace {

[[noreturn]] void bad(const std::string& what) { throw ProtocolError(what); }

const std::string& require_string(const common::Json& v, const char* key) {
  if (!v.is_string()) bad(std::string("'") + key + "' must be a string");
  return v.as_string();
}

/// Sets the knob-table row whose serve key is `key` from a JSON value.
/// Converts only the JSON syntax; the row checks the bound.
void set_option(pipeline::RoutingSpec& opts, const std::string& key,
                const common::Json& v) {
  using pipeline::RoutingKnob;
  using Kind = RoutingKnob::Kind;
  const auto knobs = pipeline::routing_knobs();
  const auto knob = std::find_if(
      knobs.begin(), knobs.end(),
      [&](const RoutingKnob& k) { return key == k.key; });
  if (knob == knobs.end()) bad("unknown option '" + key + "'");
  const std::string name = "'" + key + "'";
  RoutingKnob::Value value;
  switch (knob->kind) {
    case Kind::kOn:
    case Kind::kOff:
      if (!v.is_bool()) bad(name + " must be a boolean");
      value = v.as_bool();
      break;
    case Kind::kInt:
    case Kind::kSeed:
      // The raw token, parsed as the CLI parses the flag's text.
      if (!v.is_number()) bad(name + " must be an integer");
      value = v.raw_number();
      break;
    case Kind::kNumber:
      if (!v.is_number()) bad(name + " must be a number");
      value = v.as_number();
      break;
    case Kind::kMapping:
      value = require_string(v, key.c_str());
      break;
  }
  try {
    knob->set(opts, value, name);
  } catch (const pipeline::UsageError& e) {
    throw ProtocolError(e.what());
  }
}

}  // namespace

ServeRequest parse_request(const std::string& line,
                           const pipeline::RoutingSpec& defaults) {
  common::Json doc = [&] {
    try {
      return common::Json::parse(line);
    } catch (const common::JsonError& e) {
      throw ProtocolError(e.what());
    }
  }();
  if (!doc.is_object()) bad("request must be a JSON object");
  // Strict schema: a typo'd key (e.g. "devics") must error, not silently
  // route with server defaults — same policy as inside "options". Same
  // for duplicates, where find() would silently drop all but the first.
  for (std::size_t i = 0; i < doc.members().size(); ++i) {
    const std::string& key = doc.members()[i].first;
    if (key != "id" && key != "cmd" && key != "qasm" &&
        key != "suite_name" && key != "name" && key != "device" &&
        key != "router" && key != "options") {
      bad("unknown request key '" + key + "'");
    }
    for (std::size_t j = 0; j < i; ++j) {
      if (doc.members()[j].first == key) {
        bad("duplicate request key '" + key + "'");
      }
    }
  }

  ServeRequest req;
  req.opts = defaults;
  if (const common::Json* id = doc.find("id")) {
    if (id->is_number()) {
      req.id_json = id->raw_number();
    } else if (id->is_string()) {
      req.id_json = common::json_quote(id->as_string());
    } else if (!id->is_null()) {
      bad("'id' must be a number or string");
    }
  }

  if (const common::Json* cmd = doc.find("cmd")) {
    const std::string& name = require_string(*cmd, "cmd");
    if (name != "stats") bad("unknown cmd '" + name + "'");
    // Same strict-schema policy as route requests: a control line
    // carrying route payload is a client bug, not something to drop.
    for (const char* key : {"qasm", "suite_name", "name", "device",
                            "router", "options"}) {
      if (doc.find(key)) {
        bad(std::string("'") + key + "' is not valid in a control request");
      }
    }
    req.kind = ServeRequest::Kind::kStats;
    return req;
  }

  const common::Json* qasm = doc.find("qasm");
  const common::Json* suite = doc.find("suite_name");
  if ((qasm != nullptr) == (suite != nullptr)) {
    bad("route requests need exactly one of 'qasm' or 'suite_name'");
  }
  if (qasm) req.qasm = require_string(*qasm, "qasm");
  if (suite) req.suite_name = require_string(*suite, "suite_name");

  if (const common::Json* name = doc.find("name")) {
    req.name = require_string(*name, "name");
  }
  if (const common::Json* device = doc.find("device")) {
    if (device->is_string()) {
      // Trust boundary: request lines are untrusted, and some registry
      // entries (the `file:` JSON loader) read the server's filesystem.
      // Refuse those here — the serve *command line* may still use them,
      // and remote clients ship inline device objects instead.
      const std::string& spec = device->as_string();
      if (const pipeline::DeviceEntry* entry =
              pipeline::DeviceRegistry::instance().resolve(spec)) {
        if (entry->local_only) {
          bad("device spec '" + spec + "' reads the server filesystem and "
              "is not allowed in requests; send an inline device object "
              "instead");
        }
      }
      req.opts.device = spec;
    } else if (device->is_object()) {
      // Inline device description, same schema as `--device file:`. Parse
      // errors become per-request protocol errors.
      try {
        auto parsed = std::make_shared<const arch::Device>(
            arch::device_from_json(*device));
        req.opts.device = parsed->name;  // display-only (not cache-keyed)
        req.inline_device = std::move(parsed);
      } catch (const std::invalid_argument& e) {
        bad(e.what());
      }
    } else {
      bad("'device' must be a spec string or a device object");
    }
  }
  if (const common::Json* router = doc.find("router")) {
    const std::string& name = require_string(*router, "router");
    try {
      req.opts.router = pipeline::RouterRegistry::instance().at(name).name;
    } catch (const pipeline::UsageError& e) {
      throw ProtocolError(e.what());  // lists the registered names
    }
  }
  if (const common::Json* options = doc.find("options")) {
    if (!options->is_object()) bad("'options' must be an object");
    for (const auto& [key, value] : options->members()) {
      set_option(req.opts, key, value);
    }
  }
  return req;
}

std::uint64_t options_fingerprint(const pipeline::RoutingSpec& opts) {
  common::Fnv1a h;
  // Fingerprint schema version (4: + SABRE layout horizon; 5: the
  // free-form extras are gone).
  h.u64(5);
  h.str(opts.router);
  h.str(opts.mapping);
  h.u64(opts.seed);
  h.i64(opts.mapping_rounds);
  h.i64(opts.mapping_horizon);
  h.byte(opts.peephole ? 1 : 0);
  h.byte(opts.verify ? 1 : 0);
  h.byte(opts.codar.context_aware ? 1 : 0);
  h.byte(opts.codar.duration_aware ? 1 : 0);
  h.byte(opts.codar.commutativity_aware ? 1 : 0);
  h.byte(opts.codar.fine_priority ? 1 : 0);
  h.i64(opts.codar.front_window);
  h.i64(opts.codar.stagnation_threshold);
  // Objective weights change routed output for codar-fid, so they are
  // cache-key relevant. Folded unconditionally (also under codar/sabre,
  // where they are inert): conditioning on the router name would make two
  // requests that differ only in an ignored knob alias — harmless — but
  // cost a router-name comparison on every lookup for no correctness win.
  h.f64(opts.fid.alpha);
  h.f64(opts.fid.beta);
  h.f64(opts.fid.gamma);
  return h.value();
}

}  // namespace codar::service
