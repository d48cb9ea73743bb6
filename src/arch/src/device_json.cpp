#include "codar/arch/device_json.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <initializer_list>
#include <set>
#include <sstream>
#include <stdexcept>
#include <vector>

namespace codar::arch {

using common::Json;

namespace {

[[noreturn]] void bad(const std::string& what) {
  throw std::invalid_argument("device json: " + what);
}

/// Strict-schema helper: every key of `obj` must appear in `allowed`, and
/// no key may repeat (find() would silently drop all but the first).
/// O(N log N) — inline serve devices are untrusted, so a huge object must
/// not buy quadratic validation time on the reader thread.
void check_keys(const Json& obj, const char* context,
                std::initializer_list<std::string_view> allowed) {
  std::set<std::string_view> seen;
  for (const auto& [key, value] : obj.members()) {
    bool known = false;
    for (const std::string_view a : allowed) known = known || key == a;
    if (!known) bad(std::string("unknown key '") + key + "' in " + context);
    if (!seen.insert(key).second) {
      bad(std::string("duplicate key '") + key + "' in " + context);
    }
  }
}

/// Duplicate-key check for objects whose keys are free-form (the per-kind
/// tables, where any gate mnemonic is legal). O(N log N), as check_keys.
void check_no_duplicates(const Json& obj, const char* context) {
  std::set<std::string_view> seen;
  for (const auto& [key, value] : obj.members()) {
    if (!seen.insert(key).second) {
      bad("duplicate key '" + key + "' in " + context);
    }
  }
}

long long require_int(const Json& v, const char* what) {
  if (!v.is_number()) bad(std::string(what) + " must be an integer");
  const double d = v.as_number();
  if (d != std::floor(d) || std::abs(d) > 9.0e15) {
    bad(std::string(what) + " must be an integer");
  }
  return static_cast<long long>(d);
}

Duration require_duration(const Json& v, const char* what) {
  const long long d = require_int(v, what);
  if (d < 0) bad(std::string(what) + " must be >= 0");
  return static_cast<Duration>(d);
}

double require_fidelity(const Json& v, const char* what) {
  if (!v.is_number()) bad(std::string(what) + " must be a number");
  const double f = v.as_number();
  // Zero is rejected alongside out-of-range values: the ESP estimator
  // works in log-space and ln(0) would poison every aggregate.
  if (!(f > 0.0 && f <= 1.0)) {
    bad(std::string(what) + " must be in (0, 1]");
  }
  return f;
}

Qubit require_qubit(const Json& v, int num_qubits, const char* what) {
  const long long q = require_int(v, what);
  if (q < 0 || q >= num_qubits) {
    bad(std::string(what) + " out of range [0, " +
        std::to_string(num_qubits) + ")");
  }
  return static_cast<Qubit>(q);
}

std::pair<Qubit, Qubit> require_edge(const Json& v, int num_qubits,
                                     const char* what) {
  if (!v.is_array() || v.items().size() != 2) {
    bad(std::string(what) + " must be a [a, b] pair");
  }
  const Qubit a = require_qubit(v.items()[0], num_qubits, what);
  const Qubit b = require_qubit(v.items()[1], num_qubits, what);
  if (a == b) bad(std::string(what) + " endpoints must differ");
  return {a, b};
}

/// A decoherence time: positive, possibly fractional, in cycles. Omitted
/// channels stay infinite (ideal), so there is no way to *write* infinity
/// in a file — leave the key out instead.
double require_coherence_time(const Json& v, const char* what) {
  if (!v.is_number()) bad(std::string(what) + " must be a number");
  const double t = v.as_number();
  if (!(t > 0.0) || !std::isfinite(t)) {
    bad(std::string(what) + " must be a positive finite number of cycles");
  }
  return t;
}

Coherence parse_coherence(const Json& obj) {
  check_keys(obj, "'coherence'", {"t1", "t2"});
  Coherence c;
  if (const Json* v = obj.find("t1")) {
    c.t1 = require_coherence_time(*v, "'coherence.t1'");
  }
  if (const Json* v = obj.find("t2")) {
    c.t2 = require_coherence_time(*v, "'coherence.t2'");
  }
  return c;
}

/// qasm mnemonic → GateKind, or throws naming the offender.
ir::GateKind kind_by_name(const std::string& name) {
  for (std::size_t i = 0; i < ir::kGateKindCount; ++i) {
    const auto kind = static_cast<ir::GateKind>(i);
    if (name == ir::gate_info(kind).name) return kind;
  }
  bad("unknown gate kind '" + name + "'");
}

DurationMap parse_durations(const Json& obj) {
  check_keys(obj, "'durations'", {"1q", "2q", "swap", "measure", "kinds"});
  DurationMap m;  // superconducting defaults, as the presets use
  // Broadcast helpers first, per-kind overrides last, independent of the
  // document's member order.
  if (const Json* v = obj.find("1q")) {
    m.set_all_single_qubit(require_duration(*v, "'durations.1q'"));
  }
  if (const Json* v = obj.find("2q")) {
    const Duration d = require_duration(*v, "'durations.2q'");
    m.set_all_two_qubit(d);
    // Derive the composite kinds exactly as the fidelity helper does
    // (f^3 / f^6): SWAP = three CX, CCX = six CX. Explicit "swap" or
    // "kinds" entries below still override.
    m.set(ir::GateKind::kSwap, 3 * d);
    m.set(ir::GateKind::kCCX, 6 * d);
  }
  if (const Json* v = obj.find("swap")) {
    m.set(ir::GateKind::kSwap, require_duration(*v, "'durations.swap'"));
  }
  if (const Json* v = obj.find("measure")) {
    m.set(ir::GateKind::kMeasure,
          require_duration(*v, "'durations.measure'"));
  }
  if (const Json* kinds = obj.find("kinds")) {
    if (!kinds->is_object()) bad("'durations.kinds' must be an object");
    check_no_duplicates(*kinds, "'durations.kinds'");
    for (const auto& [name, v] : kinds->members()) {
      m.set(kind_by_name(name),
            require_duration(v, ("'durations.kinds." + name + "'").c_str()));
    }
  }
  return m;
}

FidelityMap parse_fidelities(const Json& obj) {
  check_keys(obj, "'fidelities'", {"1q", "2q", "measure", "kinds"});
  FidelityMap m;  // ideal defaults
  if (const Json* v = obj.find("1q")) {
    m.set_all_single_qubit(require_fidelity(*v, "'fidelities.1q'"));
  }
  if (const Json* v = obj.find("2q")) {
    // Also derives swap = f^3 and ccx = f^6, as the Table I presets do.
    m.set_all_two_qubit(require_fidelity(*v, "'fidelities.2q'"));
  }
  if (const Json* v = obj.find("measure")) {
    m.set_measure(require_fidelity(*v, "'fidelities.measure'"));
  }
  if (const Json* kinds = obj.find("kinds")) {
    if (!kinds->is_object()) bad("'fidelities.kinds' must be an object");
    check_no_duplicates(*kinds, "'fidelities.kinds'");
    for (const auto& [name, v] : kinds->members()) {
      m.set(kind_by_name(name),
            require_fidelity(v, ("'fidelities.kinds." + name + "'").c_str()));
    }
  }
  return m;
}

CalibrationTable parse_calibration(const Json& obj, const Device& device) {
  check_keys(obj, "'calibration'", {"qubits", "edges"});
  CalibrationTable table;
  const int n = device.graph.num_qubits();
  std::set<Qubit> seen_qubits;
  std::set<std::pair<Qubit, Qubit>> seen_edges;
  if (const Json* qubits = obj.find("qubits")) {
    if (!qubits->is_array()) bad("'calibration.qubits' must be an array");
    for (const Json& entry : qubits->items()) {
      if (!entry.is_object()) {
        bad("'calibration.qubits' entries must be objects");
      }
      check_keys(entry, "a 'calibration.qubits' entry",
                 {"qubit", "duration_1q", "duration_readout", "fidelity_1q",
                  "fidelity_readout"});
      const Json* q = entry.find("qubit");
      if (!q) bad("'calibration.qubits' entry is missing 'qubit'");
      const Qubit qubit = require_qubit(*q, n, "'qubit'");
      // Strict like the top-level edge list: a second entry for the same
      // site would silently overwrite (last one wins) — reject instead.
      if (!seen_qubits.insert(qubit).second) {
        bad("duplicate 'calibration.qubits' entry for qubit " +
            std::to_string(qubit));
      }
      bool any = false;
      if (const Json* v = entry.find("duration_1q")) {
        table.set_duration_1q(qubit, require_duration(*v, "'duration_1q'"));
        any = true;
      }
      if (const Json* v = entry.find("duration_readout")) {
        table.set_duration_readout(
            qubit, require_duration(*v, "'duration_readout'"));
        any = true;
      }
      if (const Json* v = entry.find("fidelity_1q")) {
        table.set_fidelity_1q(qubit, require_fidelity(*v, "'fidelity_1q'"));
        any = true;
      }
      if (const Json* v = entry.find("fidelity_readout")) {
        table.set_fidelity_readout(
            qubit, require_fidelity(*v, "'fidelity_readout'"));
        any = true;
      }
      if (!any) {
        bad("'calibration.qubits' entry for qubit " + std::to_string(qubit) +
            " carries no override");
      }
    }
  }
  if (const Json* edges = obj.find("edges")) {
    if (!edges->is_array()) bad("'calibration.edges' must be an array");
    for (const Json& entry : edges->items()) {
      if (!entry.is_object()) {
        bad("'calibration.edges' entries must be objects");
      }
      check_keys(entry, "a 'calibration.edges' entry",
                 {"edge", "duration_2q", "fidelity_2q"});
      const Json* e = entry.find("edge");
      if (!e) bad("'calibration.edges' entry is missing 'edge'");
      const auto [a, b] = require_edge(*e, n, "'edge'");
      if (!seen_edges.insert({std::min(a, b), std::max(a, b)}).second) {
        bad("duplicate 'calibration.edges' entry for [" + std::to_string(a) +
            ", " + std::to_string(b) + "]");
      }
      if (!device.graph.connected(a, b)) {
        bad("calibration edge [" + std::to_string(a) + ", " +
            std::to_string(b) + "] is not a coupler of the device");
      }
      bool any = false;
      if (const Json* v = entry.find("duration_2q")) {
        table.set_duration_2q(a, b, require_duration(*v, "'duration_2q'"));
        any = true;
      }
      if (const Json* v = entry.find("fidelity_2q")) {
        table.set_fidelity_2q(a, b, require_fidelity(*v, "'fidelity_2q'"));
        any = true;
      }
      if (!any) {
        bad("'calibration.edges' entry for [" + std::to_string(a) + ", " +
            std::to_string(b) + "] carries no override");
      }
    }
  }
  return table;
}

}  // namespace

Device device_from_json(const Json& doc) {
  if (!doc.is_object()) bad("device description must be a JSON object");
  check_keys(doc, "the device object",
             {"name", "qubits", "edges", "coordinates", "durations",
              "fidelities", "calibration", "coherence"});

  const Json* qubits = doc.find("qubits");
  if (!qubits) bad("missing required key 'qubits'");
  const long long n = require_int(*qubits, "'qubits'");
  // Device descriptions reach the serve process from untrusted request
  // lines, so a huge 'qubits' must not be able to OOM it. Devices above
  // kDenseOracleMaxQubits get the byte-budgeted on-demand distance backend
  // (O(E) + a bounded row cache, not an O(V^2) matrix), which is what
  // makes this cap 65536 rather than the old matrix-bound 4096.
  if (n < 1 || n > 65536) bad("'qubits' must be in [1, 65536]");

  std::string display_name = "json device";
  if (const Json* name = doc.find("name")) {
    if (!name->is_string()) bad("'name' must be a string");
    display_name = name->as_string();
  }

  CouplingGraph graph(static_cast<int>(n));
  const Json* edges = doc.find("edges");
  if (!edges) bad("missing required key 'edges'");
  if (!edges->is_array()) bad("'edges' must be an array");
  for (const Json& e : edges->items()) {
    const auto [a, b] = require_edge(e, static_cast<int>(n), "an edge");
    if (graph.connected(a, b)) {
      bad("duplicate edge [" + std::to_string(a) + ", " + std::to_string(b) +
          "]");
    }
    graph.add_edge(a, b);
  }

  if (const Json* coords = doc.find("coordinates")) {
    if (!coords->is_array() ||
        coords->items().size() != static_cast<std::size_t>(n)) {
      bad("'coordinates' must list one [row, col] per qubit");
    }
    std::vector<Coordinate> parsed;
    parsed.reserve(static_cast<std::size_t>(n));
    auto coord_value = [](const Json& v, const char* what) {
      const long long c = require_int(v, what);
      // Strict like every other numeric field: reject instead of
      // silently truncating through the int narrowing.
      if (c < -1'000'000 || c > 1'000'000) {
        bad(std::string(what) + " out of range [-1000000, 1000000]");
      }
      return static_cast<int>(c);
    };
    for (const Json& c : coords->items()) {
      if (!c.is_array() || c.items().size() != 2) {
        bad("'coordinates' entries must be [row, col] pairs");
      }
      parsed.push_back(
          Coordinate{coord_value(c.items()[0], "a coordinate row"),
                     coord_value(c.items()[1], "a coordinate col")});
    }
    graph.set_coordinates(std::move(parsed));
  }

  // Every consumer (all three routers) requires a connected graph; reject
  // here with a schema-level message instead of leaking the routers'
  // internal precondition later. One linear BFS, deliberately not
  // CouplingGraph::is_fully_connected(): that would compute the full
  // O(V^2) distance matrix, and inline serve devices are parsed on the
  // single reader thread (workers warm the matrix later, off the memo
  // miss path).
  {
    std::vector<char> reached(static_cast<std::size_t>(n), 0);
    std::vector<Qubit> frontier{0};
    reached[0] = 1;
    std::size_t count = 1;
    while (!frontier.empty()) {
      const Qubit q = frontier.back();
      frontier.pop_back();
      for (const Qubit nb : graph.neighbors(q)) {
        if (!reached[static_cast<std::size_t>(nb)]) {
          reached[static_cast<std::size_t>(nb)] = 1;
          ++count;
          frontier.push_back(nb);
        }
      }
    }
    if (count != static_cast<std::size_t>(n)) {
      bad("device graph must be connected (some qubit pairs are "
          "unreachable)");
    }
  }

  Device device{display_name, std::move(graph), DurationMap(),
                FidelityMap(), CalibrationTable()};
  if (const Json* durations = doc.find("durations")) {
    if (!durations->is_object()) bad("'durations' must be an object");
    device.durations = parse_durations(*durations);
  }
  if (const Json* fidelities = doc.find("fidelities")) {
    if (!fidelities->is_object()) bad("'fidelities' must be an object");
    device.fidelities = parse_fidelities(*fidelities);
  }
  if (const Json* calibration = doc.find("calibration")) {
    if (!calibration->is_object()) bad("'calibration' must be an object");
    device.calibration = parse_calibration(*calibration, device);
  }
  if (const Json* coherence = doc.find("coherence")) {
    if (!coherence->is_object()) bad("'coherence' must be an object");
    device.coherence = parse_coherence(*coherence);
  }
  return device;
}

Device device_from_json_text(std::string_view text) {
  try {
    return device_from_json(Json::parse(text));
  } catch (const common::JsonError& e) {
    throw std::invalid_argument(std::string("device json: ") + e.what());
  }
}

Device load_device_file(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  if (!file) {
    throw std::invalid_argument("cannot read device file '" + path + "'");
  }
  std::ostringstream text;
  text << file.rdbuf();
  try {
    return device_from_json_text(text.str());
  } catch (const std::invalid_argument& e) {
    throw std::invalid_argument(std::string(e.what()) + " (in '" + path +
                                "')");
  }
}

std::string device_to_json(const Device& device) {
  std::ostringstream out;
  out << "{\n  \"name\": " << common::json_quote(device.name)
      << ",\n  \"qubits\": " << device.graph.num_qubits();

  // Endpoint-normalized, sorted edge list — the same canonical order the
  // coupling-graph fingerprint uses.
  std::vector<std::pair<Qubit, Qubit>> edges = device.graph.edges();
  for (auto& [a, b] : edges) {
    if (a > b) std::swap(a, b);
  }
  std::sort(edges.begin(), edges.end());
  out << ",\n  \"edges\": [";
  for (std::size_t i = 0; i < edges.size(); ++i) {
    if (i > 0) out << ", ";
    out << "[" << edges[i].first << ", " << edges[i].second << "]";
  }
  out << "]";

  if (device.graph.has_coordinates()) {
    out << ",\n  \"coordinates\": [";
    for (Qubit q = 0; q < device.graph.num_qubits(); ++q) {
      if (q > 0) out << ", ";
      const Coordinate c = device.graph.coordinate(q);
      out << "[" << c.row << ", " << c.col << "]";
    }
    out << "]";
  }

  // Full per-kind tables: lossless, independent of how the maps were
  // built. The broadcast helpers are a convenience for hand-written files.
  out << ",\n  \"durations\": {\"kinds\": {";
  for (std::size_t i = 0; i < ir::kGateKindCount; ++i) {
    const auto kind = static_cast<ir::GateKind>(i);
    if (i > 0) out << ", ";
    out << common::json_quote(ir::gate_info(kind).name) << ": "
        << device.durations.of(kind);
  }
  out << "}}";
  out << ",\n  \"fidelities\": {\"kinds\": {";
  for (std::size_t i = 0; i < ir::kGateKindCount; ++i) {
    const auto kind = static_cast<ir::GateKind>(i);
    if (i > 0) out << ", ";
    out << common::json_quote(ir::gate_info(kind).name) << ": "
        << common::json_number(device.fidelities.of(kind));
  }
  out << "}}";

  if (!device.calibration.empty()) {
    const CalibrationTable& cal = device.calibration;
    // Union of qubits carrying any per-qubit override, sorted (std::map).
    std::vector<Qubit> qubits;
    auto collect = [&](const auto& map) {
      for (const auto& [q, unused] : map) {
        if (qubits.empty() || qubits.back() != q) qubits.push_back(q);
      }
    };
    collect(cal.duration_1q_entries());
    collect(cal.duration_readout_entries());
    collect(cal.fidelity_1q_entries());
    collect(cal.fidelity_readout_entries());
    std::sort(qubits.begin(), qubits.end());
    qubits.erase(std::unique(qubits.begin(), qubits.end()), qubits.end());

    std::vector<CalibrationTable::Edge> cal_edges;
    for (const auto& [e, unused] : cal.duration_2q_entries()) {
      cal_edges.push_back(e);
    }
    for (const auto& [e, unused] : cal.fidelity_2q_entries()) {
      cal_edges.push_back(e);
    }
    std::sort(cal_edges.begin(), cal_edges.end());
    cal_edges.erase(std::unique(cal_edges.begin(), cal_edges.end()),
                    cal_edges.end());

    out << ",\n  \"calibration\": {";
    bool first_section = true;
    if (!qubits.empty()) {
      out << "\n    \"qubits\": [";
      for (std::size_t i = 0; i < qubits.size(); ++i) {
        const Qubit q = qubits[i];
        if (i > 0) out << ",";
        out << "\n      {\"qubit\": " << q;
        if (const auto d = cal.duration_1q(q)) {
          out << ", \"duration_1q\": " << *d;
        }
        if (const auto d = cal.duration_readout(q)) {
          out << ", \"duration_readout\": " << *d;
        }
        if (const auto f = cal.fidelity_1q(q)) {
          out << ", \"fidelity_1q\": " << common::json_number(*f);
        }
        if (const auto f = cal.fidelity_readout(q)) {
          out << ", \"fidelity_readout\": " << common::json_number(*f);
        }
        out << "}";
      }
      out << "\n    ]";
      first_section = false;
    }
    if (!cal_edges.empty()) {
      if (!first_section) out << ",";
      out << "\n    \"edges\": [";
      for (std::size_t i = 0; i < cal_edges.size(); ++i) {
        const auto [a, b] = cal_edges[i];
        if (i > 0) out << ",";
        out << "\n      {\"edge\": [" << a << ", " << b << "]";
        if (const auto d = cal.duration_2q(a, b)) {
          out << ", \"duration_2q\": " << *d;
        }
        if (const auto f = cal.fidelity_2q(a, b)) {
          out << ", \"fidelity_2q\": " << common::json_number(*f);
        }
        out << "}";
      }
      out << "\n    ]";
    }
    out << "\n  }";
  }

  // Infinite channels are represented by omission (JSON has no infinity).
  if (device.coherence.any_finite()) {
    out << ",\n  \"coherence\": {";
    bool first = true;
    if (std::isfinite(device.coherence.t1)) {
      out << "\"t1\": " << common::json_number(device.coherence.t1);
      first = false;
    }
    if (std::isfinite(device.coherence.t2)) {
      if (!first) out << ", ";
      out << "\"t2\": " << common::json_number(device.coherence.t2);
    }
    out << "}";
  }
  out << "\n}\n";
  return out.str();
}

}  // namespace codar::arch
