#include "codar/cli/report.hpp"

#include <charconv>
#include <cmath>
#include <sstream>

#include "codar/common/expects.hpp"
#include "codar/common/json.hpp"

namespace codar::cli {

namespace {

/// Shortest round-trip rendering (to_chars without a precision yields the
/// minimal digits that parse back to the same double) — the same idiom as
/// the canonical device serializer, so ESP values are deterministic for a
/// fixed platform and lossless to reparse.
std::string render_double(double v) {
  char buf[64];
  const auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  CODAR_EXPECTS(ec == std::errc());
  return std::string(buf, ptr);
}

}  // namespace

void append_json_string(std::ostream& out, std::string_view s) {
  // Delegates to the one escaper of the whole binary (common::json_quote),
  // so batch stats and serve response envelopes can never diverge on how
  // the same byte renders.
  out << common::json_quote(s);
}

pipeline::RouteReport route_circuit(const ir::Circuit& circuit,
                                    const arch::Device& device,
                                    const Options& opts, bool keep_qasm) {
  try {
    return pipeline::Pipeline(device, opts).run(circuit, keep_qasm);
  } catch (const std::exception& e) {
    // Pipeline construction failed (unknown router/mapping name): report
    // it the same way a routing failure is reported.
    pipeline::RouteReport report;
    report.name = circuit.name();
    report.error = e.what();
    return report;
  }
}

std::string to_json(const pipeline::RouteReport& r, const Options& opts) {
  std::ostringstream out;
  out << "{\"name\": ";
  append_json_string(out, r.name);
  out << ", \"device\": ";
  append_json_string(out, opts.device);
  out << ", \"router\": ";
  append_json_string(out, opts.router);
  out << ", \"initial\": ";
  append_json_string(out, opts.mapping);
  if (!r.error.empty()) {
    out << ", \"error\": ";
    append_json_string(out, r.error);
  }
  out << ", \"qubits\": " << r.qubits << ", \"gates_in\": " << r.gates_in
      << ", \"gates_out\": " << r.gates_out
      << ", \"gates_routed\": " << r.gates_routed
      << ", \"barriers\": " << r.barriers << ", \"swaps\": " << r.swaps
      << ", \"forced_swaps\": " << r.forced_swaps
      << ", \"escape_swaps\": " << r.escape_swaps
      << ", \"cycles\": " << r.cycles << ", \"makespan\": " << r.makespan;
  // Wall times are the one nondeterministic stat: opt-in so default output
  // stays bit-identical across runs and thread counts.
  if (opts.timing) {
    out << ", \"route_us\": " << r.route_us << ", \"stage_us\": {";
    for (std::size_t i = 0; i < r.stage_us.size(); ++i) {
      if (i > 0) out << ", ";
      append_json_string(out, r.stage_us[i].stage);
      out << ": " << r.stage_us[i].us;
    }
    out << "}";
  }
  out
      << ", \"weighted_depth_in\": " << r.depth_in
      << ", \"weighted_depth_out\": " << r.depth_out
      << ", \"est_success_probability\": " << render_double(std::exp(r.log_esp))
      << ", \"log_esp\": " << render_double(r.log_esp) << ", \"verified\": "
      << (r.verified ? "true" : "false") << "}";
  return out.str();
}

std::string to_json(const std::vector<pipeline::RouteReport>& reports,
                    const Options& opts) {
  std::size_t failed = 0;
  std::size_t swaps = 0;
  std::size_t route_us = 0;
  long long depth_in = 0;
  long long depth_out = 0;
  double log_esp = 0.0;  ///< Σ log ESP = log of the suite-wide product.
  std::ostringstream out;
  out << "{\"results\": [";
  for (std::size_t i = 0; i < reports.size(); ++i) {
    if (i > 0) out << ",";
    out << "\n  " << to_json(reports[i], opts);
    if (!reports[i].ok()) ++failed;
    swaps += reports[i].swaps;
    route_us += reports[i].route_us;
    depth_in += reports[i].depth_in;
    depth_out += reports[i].depth_out;
    log_esp += reports[i].log_esp;
  }
  out << "\n], \"summary\": {\"total\": " << reports.size()
      << ", \"failed\": " << failed << ", \"swaps\": " << swaps;
  if (opts.timing) out << ", \"route_us\": " << route_us;
  out << ", \"weighted_depth_in\": " << depth_in
      << ", \"weighted_depth_out\": " << depth_out
      << ", \"log_esp\": " << render_double(log_esp) << "}}";
  return out.str();
}

}  // namespace codar::cli
