#include "codar/pipeline/pipeline.hpp"

#include <chrono>
#include <cmath>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "codar/common/json.hpp"
#include "codar/core/verify.hpp"
#include "codar/cost/fidelity_model.hpp"
#include "codar/ir/decompose.hpp"
#include "codar/ir/peephole.hpp"
#include "codar/qasm/writer.hpp"
#include "codar/schedule/scheduler.hpp"

namespace codar::pipeline {

namespace {

/// Shrinks a circuit whose declared register is wider than the device down
/// to its used qubits (QASM files routinely over-declare).
ir::Circuit fit_register(const ir::Circuit& circuit, int device_qubits) {
  if (circuit.num_qubits() <= device_qubits) return circuit;
  const int used = circuit.used_qubit_count();
  if (used > device_qubits) {
    throw std::runtime_error("circuit uses " + std::to_string(used) +
                             " qubits but the device has only " +
                             std::to_string(device_qubits));
  }
  std::vector<ir::Qubit> identity(
      static_cast<std::size_t>(circuit.num_qubits()));
  for (std::size_t q = 0; q < identity.size(); ++q) {
    identity[q] = static_cast<ir::Qubit>(q);
  }
  return circuit.remapped(identity, used);
}

/// Runs one named stage, recording its wall time on the report.
template <typename Fn>
void timed_stage(RouteReport& report, const char* stage, Fn&& fn) {
  const auto start = std::chrono::steady_clock::now();
  fn();
  report.stage_us.push_back(
      {stage, static_cast<std::size_t>(
                  std::chrono::duration_cast<std::chrono::microseconds>(
                      std::chrono::steady_clock::now() - start)
                      .count())});
}

}  // namespace

std::string to_json(const RouteReport& r, const RoutingSpec& spec) {
  std::ostringstream out;
  out << "{\"name\": " << common::json_quote(r.name)
      << ", \"device\": " << common::json_quote(spec.device)
      << ", \"router\": " << common::json_quote(spec.router)
      << ", \"initial\": " << common::json_quote(spec.mapping);
  if (!r.error.empty()) out << ", \"error\": " << common::json_quote(r.error);
  out << ", \"qubits\": " << r.qubits << ", \"gates_in\": " << r.gates_in
      << ", \"gates_out\": " << r.gates_out
      << ", \"gates_routed\": " << r.gates_routed
      << ", \"barriers\": " << r.barriers << ", \"swaps\": " << r.swaps
      << ", \"forced_swaps\": " << r.forced_swaps
      << ", \"escape_swaps\": " << r.escape_swaps
      << ", \"cycles\": " << r.cycles << ", \"makespan\": " << r.makespan;
  // Wall times are the one nondeterministic stat: opt-in so default output
  // stays bit-identical across runs and thread counts.
  if (spec.timing) {
    out << ", \"route_us\": " << r.route_us << ", \"stage_us\": {";
    for (std::size_t i = 0; i < r.stage_us.size(); ++i) {
      if (i > 0) out << ", ";
      out << common::json_quote(r.stage_us[i].stage) << ": "
          << r.stage_us[i].us;
    }
    out << "}";
  }
  out << ", \"weighted_depth_in\": " << r.depth_in
      << ", \"weighted_depth_out\": " << r.depth_out
      << ", \"est_success_probability\": "
      << common::json_number(std::exp(r.log_esp))
      << ", \"log_esp\": " << common::json_number(r.log_esp)
      << ", \"verified\": " << (r.verified ? "true" : "false") << "}";
  return out.str();
}

RouteReport route_circuit(const ir::Circuit& circuit,
                          const arch::Device& device, const RoutingSpec& spec,
                          bool keep_qasm) {
  try {
    return Pipeline(device, spec).run(circuit, keep_qasm);
  } catch (const std::exception& e) {
    // Pipeline construction failed (unknown router/mapping name): report
    // it the same way a routing failure is reported.
    RouteReport report;
    report.name = circuit.name();
    report.error = e.what();
    return report;
  }
}

Pipeline::Pipeline(const arch::Device& device, const RoutingSpec& spec)
    : device_(&device),
      spec_(spec),
      router_(RouterRegistry::instance().at(spec.router).make(device, spec)),
      mapping_(MappingRegistry::instance().at(spec.mapping).make(spec)) {}

RouteReport Pipeline::run(const ir::Circuit& circuit, bool keep_qasm) const {
  RouteReport report;
  report.name = circuit.name();
  try {
    // Stage "lower": Toffoli decomposition plus register fitting, so every
    // downstream stage sees a <=2-qubit circuit that fits the device.
    ir::Circuit lowered(0);
    timed_stage(report, "lower", [&] {
      lowered = fit_register(ir::decompose_toffoli(circuit),
                             device_->graph.num_qubits());
    });
    if (spec_.peephole) {
      timed_stage(report, "peephole",
                  [&] { lowered = ir::peephole_optimize(lowered); });
    }
    report.qubits = lowered.used_qubit_count();
    report.gates_in = lowered.size();
    report.depth_in = schedule::weighted_depth(lowered, device_->durations);

    // Stage "initial": the mapping pass chooses π.
    std::optional<layout::Layout> initial;
    timed_stage(report, "initial",
                [&] { initial = mapping_->choose(lowered, *device_); });

    // Stage "route": exactly the routing pass — route_us keeps its
    // historical meaning of pure route() wall time.
    std::optional<core::RoutingResult> result;
    timed_stage(report, "route",
                [&] { result = router_->route(lowered, *initial); });
    report.route_us = report.stage_us.back().us;

    // Stage "report": fold the router's stats into the report. Runs before
    // verification so a failed verify still reports what was produced.
    timed_stage(report, "report", [&] {
      report.gates_out = result->circuit.size();
      report.gates_routed = result->stats.gates_routed;
      report.barriers = result->stats.barriers;
      report.swaps = result->stats.swaps_inserted;
      report.forced_swaps = result->stats.forced_swaps;
      report.escape_swaps = result->stats.escape_swaps;
      report.cycles = result->stats.cycles_simulated;
      report.makespan = result->stats.router_makespan;
      // The routed circuit's indices are physical, so the device overload
      // resolves calibration; depth_in above is a *logical* circuit and
      // deliberately stays on the kind-level durations. One schedule
      // feeds both the weighted depth and the ESP estimate.
      const schedule::Schedule asap =
          schedule::asap_schedule(result->circuit, *device_);
      report.depth_out = asap.makespan;
      report.log_esp =
          cost::FidelityModel(*device_).estimate(result->circuit, asap)
              .log_esp();
    });

    if (spec_.verify) {
      core::VerifyOutcome outcome;
      timed_stage(report, "verify", [&] {
        outcome = core::verify_routing(lowered, *result, device_->graph);
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
      timed_stage(report, "render",
                  [&] { report.routed_qasm = qasm::to_qasm(result->circuit); });
    }
  } catch (const std::exception& e) {
    report.error = e.what();
  }
  return report;
}

}  // namespace codar::pipeline
