#pragma once

// Umbrella header: the whole codar library behind one include, so
// consumers never need to know the module layout. Link codar::codar (or
// the individual codar::<module> targets) to get the matching libraries.
//
//   #include "codar/codar.hpp"
//
//   codar::ir::Circuit circuit = codar::workloads::qft(6);
//   codar::arch::Device device = codar::arch::ibm_q20_tokyo();
//   codar::pipeline::RoutingSpec spec;           // router/mapping by name
//   codar::pipeline::Pipeline pipe(device, spec);
//   codar::pipeline::RouteReport report = pipe.run(circuit);
//
// The preferred compilation API is codar::pipeline (polymorphic passes,
// name-keyed catalogs, the composable Pipeline); the per-module
// headers below remain public for code that wants a specific router or
// building block directly.

// Shared utilities.
#include "codar/common/crc32c.hpp"
#include "codar/common/expects.hpp"
#include "codar/common/file_io.hpp"
#include "codar/common/fnv.hpp"
#include "codar/common/rng.hpp"
#include "codar/common/table.hpp"

// Circuit IR and transformations.
#include "codar/ir/circuit.hpp"
#include "codar/ir/dag.hpp"
#include "codar/ir/decompose.hpp"
#include "codar/ir/gate.hpp"
#include "codar/ir/inverse.hpp"
#include "codar/ir/peephole.hpp"
#include "codar/ir/unitary.hpp"

// Device models (maQAM static structure).
#include "codar/arch/coupling_graph.hpp"
#include "codar/arch/device.hpp"
#include "codar/arch/device_parameters.hpp"
#include "codar/arch/durations.hpp"
#include "codar/arch/extra_devices.hpp"
#include "codar/arch/fidelity_map.hpp"

// OpenQASM 2.0 front end / back end.
#include "codar/qasm/lexer.hpp"
#include "codar/qasm/parser.hpp"
#include "codar/qasm/writer.hpp"

// Layouts and initial-mapping strategies.
#include "codar/layout/initial_mapping.hpp"
#include "codar/layout/layout.hpp"

// Duration-weighted scheduling.
#include "codar/schedule/scheduler.hpp"
#include "codar/schedule/timeline.hpp"

// Simulators (statevector, density matrix, noise).
#include "codar/sim/density_matrix.hpp"
#include "codar/sim/noise_model.hpp"
#include "codar/sim/noisy_simulator.hpp"
#include "codar/sim/statevector.hpp"

// Routers.
#include "codar/astar/astar_router.hpp"
#include "codar/core/codar_router.hpp"
#include "codar/core/commutativity.hpp"
#include "codar/core/front.hpp"
#include "codar/core/heuristic.hpp"
#include "codar/core/qubit_lock.hpp"
#include "codar/core/routing_result.hpp"
#include "codar/core/swap_cost.hpp"
#include "codar/core/verify.hpp"
#include "codar/sabre/sabre_router.hpp"

// Fidelity cost model (ESP estimator + fidelity-aware SWAP pricing).
#include "codar/cost/fidelity_model.hpp"
#include "codar/cost/swap_cost.hpp"

// Benchmark workloads.
#include "codar/workloads/generators.hpp"
#include "codar/workloads/suite.hpp"

// The unified compilation API: passes, catalogs, pipeline.
#include "codar/pipeline/device_registry.hpp"
#include "codar/pipeline/pipeline.hpp"
#include "codar/pipeline/registry.hpp"
#include "codar/pipeline/routing_pass.hpp"
#include "codar/pipeline/spec.hpp"

// Persistent route-report store (crash-safe append-only log).
#include "codar/store/log_store.hpp"
#include "codar/store/report_codec.hpp"

// Application layers: the serve service and the CLI front end over it.
#include "codar/service/protocol.hpp"
#include "codar/service/route_cache.hpp"
#include "codar/service/server.hpp"
#include "codar/cli/driver.hpp"
#include "codar/cli/options.hpp"
