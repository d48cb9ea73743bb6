#pragma once

// The composable compilation pipeline behind every codar entry point:
// lower Toffolis → optional peephole → initial mapping → route → report →
// verify → render, with per-stage wall-time instrumentation. One circuit
// in, one RouteReport out; the batch driver, the single-file CLI path and
// the `codar serve` service all run exactly this sequence through
// route_circuit, and render its report with to_json, which is what keeps
// their outputs byte-identical (the serve differential test locks serve
// responses against batch output).

#include <memory>
#include <string>
#include <vector>

#include "codar/arch/device.hpp"
#include "codar/ir/circuit.hpp"
#include "codar/pipeline/registry.hpp"
#include "codar/pipeline/routing_pass.hpp"
#include "codar/pipeline/spec.hpp"

namespace codar::pipeline {

/// Wall time of one pipeline stage, microseconds. Nondeterministic by
/// nature: the JSON rendering only includes stage timings when the caller
/// opted in (--timing), so default stats stay bit-identical across runs
/// and thread counts.
struct StageTiming {
  std::string stage;
  std::size_t us = 0;
};

/// Everything the pipeline reports about one routed circuit. All counters
/// are integers so the JSON rendering is bit-exact across runs and thread
/// counts.
struct RouteReport {
  std::string name;
  std::string error;         ///< Nonempty = the job failed; other fields stale.
  bool verified = false;     ///< verify_routing passed (false if skipped).
  bool verify_skipped = false;
  int qubits = 0;            ///< Logical qubits used by the input.
  std::size_t gates_in = 0;
  std::size_t gates_out = 0; ///< Routed gates incl. SWAPs.
  std::size_t gates_routed = 0;  ///< Real (non-barrier) input gates routed.
  std::size_t barriers = 0;      ///< Barrier fences carried through.
  std::size_t swaps = 0;
  std::size_t forced_swaps = 0;
  std::size_t escape_swaps = 0;
  std::size_t cycles = 0;        ///< Distinct simulated timestamps (CODAR).
  std::size_t route_us = 0;      ///< "route" stage wall time, microseconds.
  arch::Duration makespan = 0;   ///< Router's own timeline length.
  arch::Duration depth_in = 0;   ///< Duration-weighted depth before routing.
  arch::Duration depth_out = 0;  ///< ... and after (the paper's metric).
  /// Estimated success probability of the routed circuit under the
  /// device's calibrated fidelities + coherence (cost::FidelityModel).
  /// Log-space is the primary value (ESP underflows double for deep
  /// circuits); est_success_probability = exp(log_esp). Unlike the
  /// integer counters these are doubles — deterministic for a fixed
  /// platform, but the JSON rendering rounds-trips them exactly, so
  /// cross-platform comparisons should allow ulp-level slack.
  double log_esp = 0.0;
  std::string routed_qasm;       ///< Empty unless rendering was requested.
  /// Per-stage wall times in execution order; presentation-only (see
  /// StageTiming).
  std::vector<StageTiming> stage_us;

  bool ok() const { return error.empty() && (verified || verify_skipped); }
};

/// The report's JSON stats object: stable key order, integer counters,
/// shortest round-trip doubles. `spec` supplies the device, router and
/// mapping names; the nondeterministic route_us/stage_us fields appear
/// only under spec.timing.
std::string to_json(const RouteReport& report, const RoutingSpec& spec);

/// A resolved compilation pipeline: the router and initial-mapping passes
/// named by the spec, looked up in the catalogs and constructed for one
/// device. Construction validates the names (UsageError lists the
/// catalog's). run() is const and share-nothing per call, so one
/// Pipeline may serve many threads — the batch driver builds one per job
/// instead only because that is what the pre-registry code did.
class Pipeline {
 public:
  /// `device` must outlive the Pipeline (passes copy their own device
  /// model, but the pipeline reads graph/durations per run).
  Pipeline(const arch::Device& device, const RoutingSpec& spec);

  /// Runs the full stage sequence on one circuit. Never throws for
  /// routing/verification problems — failures land in `error`.
  /// `keep_qasm` enables the final render stage (report.routed_qasm).
  RouteReport run(const ir::Circuit& circuit, bool keep_qasm = false) const;

  const RoutingPass& router() const { return *router_; }
  const MappingPass& mapping() const { return *mapping_; }
  const RoutingSpec& spec() const { return spec_; }

 private:
  const arch::Device* device_;
  RoutingSpec spec_;
  std::unique_ptr<RoutingPass> router_;
  std::unique_ptr<MappingPass> mapping_;
};

/// Routes one circuit through a freshly resolved Pipeline. Never throws:
/// an unknown router or mapping name lands in `error` like any routing
/// failure.
RouteReport route_circuit(const ir::Circuit& circuit,
                          const arch::Device& device, const RoutingSpec& spec,
                          bool keep_qasm);

}  // namespace codar::pipeline
