// The benchmark's own view of a compile: its rendering of route reports,
// its independent output checks, the span recorder, and the pipeline's
// stage sequence called layer by layer for the traced run.

#include <algorithm>
#include <array>
#include <cctype>
#include <charconv>
#include <cmath>
#include <complex>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <optional>
#include <stdexcept>

#include "bench.hpp"

namespace perfbench {

namespace ir = codar::ir;
using codar::pipeline::RouteReport;

// ---- rendering --------------------------------------------------------------

std::string json_quote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (c == '\n') {
      out += "\\n";
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", static_cast<unsigned>(c));
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

std::string render_report(const RouteReport& r, const std::string& device_label,
                          const codar::pipeline::RoutingSpec& spec) {
  std::string out = "{\"name\": " + json_quote(r.name) +
                    ", \"device\": " + json_quote(device_label) +
                    ", \"router\": " + json_quote(spec.router) +
                    ", \"initial\": " + json_quote(spec.mapping);
  if (!r.error.empty()) out += ", \"error\": " + json_quote(r.error);
  auto field = [&out](const char* key, auto value) {
    out += ", \"";
    out += key;
    out += "\": " + std::to_string(value);
  };
  field("qubits", r.qubits);
  field("gates_in", r.gates_in);
  field("gates_out", r.gates_out);
  field("gates_routed", r.gates_routed);
  field("barriers", r.barriers);
  field("swaps", r.swaps);
  field("forced_swaps", r.forced_swaps);
  field("escape_swaps", r.escape_swaps);
  field("cycles", r.cycles);
  field("makespan", r.makespan);
  field("weighted_depth_in", r.depth_in);
  field("weighted_depth_out", r.depth_out);
  out += ", \"est_success_probability\": " + json_number(std::exp(r.log_esp)) +
         ", \"log_esp\": " + json_number(r.log_esp) +
         ", \"verified\": " + (r.verified ? "true" : "false") + "}";
  return out;
}

// ---- independent routed-output check ---------------------------------------

namespace {

/// One gate as text names it: kind, exact parameter bits, operands.
struct GateKey {
  ir::GateKind kind;
  std::array<std::uint64_t, 3> params{};
  std::array<int, 3> qubits{-1, -1, -1};
  friend auto operator<=>(const GateKey&, const GateKey&) = default;
};

std::optional<ir::GateKind> kind_named(const std::string& name) {
  for (std::size_t k = 0; k < ir::kGateKindCount; ++k) {
    const auto kind = static_cast<ir::GateKind>(k);
    if (name == ir::gate_info(kind).name) return kind;
  }
  return std::nullopt;
}

std::uint64_t bits_of(double v) {
  std::uint64_t b = 0;
  std::memcpy(&b, &v, sizeof b);
  return b;
}

/// Parses the writer's flat-register OpenQASM: one gate per line,
/// `name(p,...) q[a],q[b];` or `measure q[a] -> c[a];`. Throws on
/// anything else.
std::vector<GateKey> parse_routed(const std::string& text) {
  std::vector<GateKey> gates;
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) eol = text.size();
    const std::string line = text.substr(pos, eol - pos);
    pos = eol + 1;
    if (line.empty() || line.rfind("OPENQASM", 0) == 0 ||
        line.rfind("include", 0) == 0 || line.rfind("qreg", 0) == 0 ||
        line.rfind("creg", 0) == 0) {
      continue;
    }
    std::size_t i = 0;
    while (i < line.size() && (std::isalnum(static_cast<unsigned char>(line[i])) != 0)) ++i;
    const auto kind = kind_named(line.substr(0, i));
    if (!kind) throw std::runtime_error("unknown gate line: " + line);
    GateKey key{*kind};
    int np = 0;
    if (i < line.size() && line[i] == '(') {
      const std::size_t close = line.find(')', i);
      if (close == std::string::npos) throw std::runtime_error("bad params: " + line);
      std::size_t p = i + 1;
      while (p < close) {
        std::size_t comma = line.find(',', p);
        if (comma == std::string::npos || comma > close) comma = close;
        if (np >= 3) throw std::runtime_error("too many params: " + line);
        key.params[static_cast<std::size_t>(np++)] =
            bits_of(std::strtod(line.substr(p, comma - p).c_str(), nullptr));
        p = comma + 1;
      }
      i = close + 1;
    }
    int nq = 0;
    for (std::size_t q = line.find("q[", i); q != std::string::npos;
         q = line.find("q[", q + 2)) {
      if (nq >= 3) throw std::runtime_error("too many operands: " + line);
      key.qubits[static_cast<std::size_t>(nq++)] = std::atoi(line.c_str() + q + 2);
    }
    if (nq == 0 || np != ir::gate_info(*kind).num_params) {
      throw std::runtime_error("malformed gate line: " + line);
    }
    gates.push_back(key);
  }
  return gates;
}

GateKey key_of(const ir::Gate& g) {
  GateKey key{g.kind()};
  for (int i = 0; i < g.num_params(); ++i) {
    key.params[static_cast<std::size_t>(i)] = bits_of(g.param(i));
  }
  for (int i = 0; i < g.num_qubits(); ++i) {
    key.qubits[static_cast<std::size_t>(i)] = g.qubit(i);
  }
  return key;
}

}  // namespace

std::string check_routed(const ir::Circuit& lowered,
                         const codar::layout::Layout& initial,
                         const std::string& routed_qasm,
                         const codar::arch::Device& device,
                         const RouteReport& report) {
  if (!report.error.empty()) return "report error: " + report.error;
  if (!report.verified) return "report not verified";
  std::vector<GateKey> routed;
  try {
    routed = parse_routed(routed_qasm);
  } catch (const std::exception& e) {
    return e.what();
  }
  if (routed.size() != report.gates_out) return "gate count differs from gates_out";

  std::vector<int> p2l(static_cast<std::size_t>(device.graph.num_qubits()), -1);
  for (int l = 0; l < initial.num_logical(); ++l) {
    p2l[static_cast<std::size_t>(initial.physical(l))] = l;
  }
  std::vector<GateKey> mapped;
  mapped.reserve(routed.size());
  std::size_t swaps = 0;
  for (GateKey g : routed) {
    for (const int q : g.qubits) {
      if (q >= device.graph.num_qubits()) return "operand outside the device";
    }
    if (g.kind == ir::GateKind::kBarrier) continue;  // fences carry no semantics
    if (g.qubits[2] >= 0) return "routed gate wider than two qubits";
    if (g.qubits[1] >= 0 && !device.graph.connected(g.qubits[0], g.qubits[1])) {
      return "two-qubit gate off the coupling graph";
    }
    if (g.kind == ir::GateKind::kSwap) {
      std::swap(p2l[static_cast<std::size_t>(g.qubits[0])],
                p2l[static_cast<std::size_t>(g.qubits[1])]);
      ++swaps;
      continue;
    }
    for (int& q : g.qubits) {
      if (q < 0) continue;
      q = p2l[static_cast<std::size_t>(q)];
      if (q < 0) return "gate on an unmapped physical qubit";
    }
    mapped.push_back(g);
  }
  if (swaps != report.swaps) return "SWAP count differs from the report";

  std::vector<GateKey> expected;
  expected.reserve(lowered.size());
  for (const ir::Gate& g : lowered.gates()) {
    if (g.kind() != ir::GateKind::kBarrier) expected.push_back(key_of(g));
  }
  std::sort(mapped.begin(), mapped.end());
  std::sort(expected.begin(), expected.end());
  if (mapped != expected) return "routed gates differ from the lowered input";
  return "";
}

// ---- statevector equivalence -----------------------------------------------

std::string check_statevector(const ir::Circuit& lowered,
                              const codar::core::RoutingResult& result,
                              std::uint64_t seed) {
  constexpr int kMaxLogical = 10;
  constexpr int kMaxPhysical = 16;
  const int n = lowered.num_qubits();
  if (n > kMaxLogical) return "skip";
  auto simulated = [](const ir::Gate& g) {
    return g.kind() != ir::GateKind::kMeasure && g.kind() != ir::GateKind::kBarrier;
  };
  // Compress the touched physical qubits to a small register.
  std::vector<int> slot(static_cast<std::size_t>(result.circuit.num_qubits()), -1);
  int k = 0;
  auto touch = [&](int p) {
    if (slot[static_cast<std::size_t>(p)] < 0) slot[static_cast<std::size_t>(p)] = k++;
  };
  for (int l = 0; l < n; ++l) {
    touch(result.initial.physical(l));
    touch(result.final.physical(l));
  }
  for (const ir::Gate& g : result.circuit.gates()) {
    if (!simulated(g)) continue;
    for (const ir::Qubit q : g.qubits()) touch(q);
  }
  if (k > kMaxPhysical) return "skip";

  // A seeded product state in front of both circuits, so the check is not
  // blind to gates that act trivially on |0...0>.
  Rng rng(seed);
  std::vector<ir::Gate> prep;
  for (int l = 0; l < n; ++l) {
    prep.push_back(ir::Gate::u3(l, rng.unit() * 3.1, rng.unit() * 6.2, rng.unit() * 6.2));
  }
  codar::sim::Statevector logical(n);
  for (const ir::Gate& g : prep) logical.apply(g);
  for (const ir::Gate& g : lowered.gates()) {
    if (simulated(g)) logical.apply(g);
  }
  auto compress = [&](ir::Qubit q) { return slot[static_cast<std::size_t>(q)]; };
  codar::sim::Statevector physical(k);
  for (int l = 0; l < n; ++l) {
    physical.apply(prep[static_cast<std::size_t>(l)].remapped(
        [&](ir::Qubit) { return compress(result.initial.physical(l)); }));
  }
  for (const ir::Gate& g : result.circuit.gates()) {
    if (simulated(g)) physical.apply(g.remapped(compress));
  }
  codar::sim::Statevector expected(k);
  expected.amplitudes().assign(expected.dim(), {});
  for (std::size_t b = 0; b < logical.dim(); ++b) {
    std::size_t e = 0;
    for (int l = 0; l < n; ++l) {
      if ((b >> l) & 1U) e |= std::size_t{1} << compress(result.final.physical(l));
    }
    expected.amplitudes()[e] = logical.amp(b);
  }
  const double fidelity = expected.fidelity(physical);
  if (!(fidelity > 1.0 - 1e-8)) {
    return "statevector fidelity " + std::to_string(fidelity);
  }
  return "";
}

// ---- tracing ----------------------------------------------------------------

int Tracer::begin(const char* name, std::int64_t request) {
  const int parent = stack_.empty() ? -1 : stack_.back();
  spans_.push_back(Span{name,
                        std::chrono::duration_cast<std::chrono::nanoseconds>(
                            Clock::now() - epoch_).count(),
                        0, parent, request});
  const int index = static_cast<int>(spans_.size() - 1);
  stack_.push_back(index);
  return index;
}

void Tracer::end(int index) {
  spans_[static_cast<std::size_t>(index)].end_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - epoch_)
          .count();
  stack_.pop_back();
}

double Tracer::total(const std::string& name) const {
  std::int64_t ns = 0;
  for (const Span& s : spans_) {
    if (name == s.name) ns += s.end_ns - s.start_ns;
  }
  return static_cast<double>(ns) * 1e-9;
}

double Tracer::self(const std::string& name) const {
  std::int64_t ns = 0;
  for (const Span& s : spans_) {
    if (name == s.name) ns += s.end_ns - s.start_ns;
  }
  for (const Span& s : spans_) {
    if (s.parent >= 0 && name == spans_[static_cast<std::size_t>(s.parent)].name) {
      ns -= s.end_ns - s.start_ns;
    }
  }
  return static_cast<double>(ns) * 1e-9;
}

void Tracer::write(const std::string& path) const {
  std::ofstream out(path);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"id\": " << i << ", \"name\": \"" << s.name << "\", \"start_ns\": "
        << s.start_ns << ", \"end_ns\": " << s.end_ns << ", \"parent\": " << s.parent
        << ", \"request\": " << s.request << "}\n";
  }
}

// ---- the pipeline, layer by layer --------------------------------------------

RouteReport traced_pipeline(const codar::pipeline::Pipeline& pipe,
                            const codar::arch::Device& device,
                            const ir::Circuit& circuit, bool keep_qasm,
                            Tracer* tracer, std::int64_t request,
                            std::optional<codar::core::RoutingResult>* result_out) {
  // Mirrors Pipeline::run stage for stage (lower, initial, route, report,
  // verify, render); the traced run compares the rendered result against
  // Pipeline::run's, so a drift here fails the run instead of skewing it.
  RouteReport report;
  report.name = circuit.name();
  const Scope run(tracer, "pipeline.run", request);
  auto stage = [&](const char* stage_name, const char* span_name, auto&& fn) {
    const auto start = Clock::now();
    {
      const Scope s(tracer, span_name, request);
      fn();
    }
    report.stage_us.push_back(
        {stage_name, static_cast<std::size_t>(
                         std::chrono::duration_cast<std::chrono::microseconds>(
                             Clock::now() - start).count())});
  };
  try {
    ir::Circuit lowered(0);
    stage("lower", "ir.lower", [&] {
      lowered = ir::decompose_toffoli(circuit);
      const int width = device.graph.num_qubits();
      if (lowered.num_qubits() > width) {
        const int used = lowered.used_qubit_count();
        if (used > width) {
          throw std::runtime_error("circuit uses " + std::to_string(used) +
                                   " qubits but the device has only " +
                                   std::to_string(width));
        }
        std::vector<ir::Qubit> identity(static_cast<std::size_t>(lowered.num_qubits()));
        for (std::size_t q = 0; q < identity.size(); ++q) identity[q] = static_cast<ir::Qubit>(q);
        lowered = lowered.remapped(identity, used);
      }
    });
    if (pipe.spec().peephole) {
      stage("peephole", "ir.peephole", [&] { lowered = ir::peephole_optimize(lowered); });
    }
    report.qubits = lowered.used_qubit_count();
    report.gates_in = lowered.size();
    {
      const Scope s(tracer, "schedule.asap", request);
      report.depth_in = codar::schedule::weighted_depth(lowered, device.durations);
    }
    std::optional<codar::layout::Layout> initial;
    stage("initial", "sabre.initial", [&] { initial = pipe.mapping().choose(lowered, device); });
    std::optional<codar::core::RoutingResult> result;
    stage("route", "core.route", [&] { result = pipe.router().route(lowered, *initial); });
    report.route_us = report.stage_us.back().us;
    const auto report_start = Clock::now();
    report.gates_out = result->circuit.size();
    report.gates_routed = result->stats.gates_routed;
    report.barriers = result->stats.barriers;
    report.swaps = result->stats.swaps_inserted;
    report.forced_swaps = result->stats.forced_swaps;
    report.escape_swaps = result->stats.escape_swaps;
    report.cycles = result->stats.cycles_simulated;
    report.makespan = result->stats.router_makespan;
    std::optional<codar::schedule::Schedule> asap;
    {
      const Scope s(tracer, "schedule.asap", request);
      asap = codar::schedule::asap_schedule(result->circuit, device);
    }
    report.depth_out = asap->makespan;
    {
      const Scope s(tracer, "cost.esp", request);
      report.log_esp =
          codar::cost::FidelityModel(device).estimate(result->circuit, *asap).log_esp();
    }
    report.stage_us.push_back(
        {"report", static_cast<std::size_t>(
                       std::chrono::duration_cast<std::chrono::microseconds>(
                           Clock::now() - report_start).count())});
    if (pipe.spec().verify) {
      codar::core::VerifyOutcome outcome;
      stage("verify", "core.verify", [&] {
        outcome = codar::core::verify_routing(lowered, *result, device.graph);
      });
      report.verified = outcome.valid;
      if (!outcome.valid) {
        report.error = "verification failed: " + outcome.reason;
        return report;
      }
    } else {
      report.verify_skipped = true;
    }
    if (keep_qasm) {
      stage("render", "qasm.render",
            [&] { report.routed_qasm = codar::qasm::to_qasm(result->circuit); });
    }
    if (result_out != nullptr) *result_out = std::move(result);
  } catch (const std::exception& e) {
    report.error = e.what();
  }
  return report;
}

}  // namespace perfbench
