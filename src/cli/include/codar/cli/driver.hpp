#pragma once

// The driver behind the `codar` binary, exposed as a library so the
// integration tests can exercise exactly what the CLI runs: the batch
// fan-out (run_batch: a job list over a thread pool, share-nothing per
// job, results in input order regardless of thread count) and the full
// entry point for every command line, `codar serve` included. One circuit
// routes through pipeline::route_circuit and renders with
// pipeline::to_json, exactly as in `codar serve`.

#include <iosfwd>
#include <string>
#include <vector>

#include "codar/arch/device.hpp"
#include "codar/pipeline/pipeline.hpp"
#include "codar/workloads/suite.hpp"

namespace codar::cli {

/// Routes every job across `spec.threads` worker threads (0 = hardware
/// concurrency). Jobs are claimed from a shared atomic counter; each worker
/// builds its own router, so no routing state is shared. The result vector
/// is indexed like `jobs` — identical output for any thread count.
std::vector<pipeline::RouteReport> run_batch(
    const std::vector<workloads::BenchmarkSpec>& jobs,
    const arch::Device& device, const pipeline::RoutingSpec& spec);

/// Full CLI: parse args, then route (single file or batch), print a
/// listing, or — for `codar serve ...` — run the service, which reads
/// requests from `in` on the stdio transport. Writes QASM/stats to the
/// configured files or streams. Returns the process exit code: 0 ok, 1
/// routing or verification failures, 2 usage, setup or write errors.
int run_cli(const std::vector<std::string>& args, std::istream& in,
            std::ostream& out, std::ostream& err);

}  // namespace codar::cli
