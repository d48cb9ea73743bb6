#pragma once

// The driver behind the `codar` binary, exposed as a library so the
// integration tests can exercise exactly what the CLI runs. The one-circuit
// wrapper (route_circuit + to_json) lives in report.hpp; this header adds the batch fan-out (run_batch: a job list over a thread
// pool, share-nothing per job, results in input order regardless of thread
// count) and the full single/batch CLI entry point.

#include <string>
#include <vector>

#include "codar/arch/device.hpp"
#include "codar/cli/options.hpp"
#include "codar/cli/report.hpp"
#include "codar/workloads/suite.hpp"

namespace codar::cli {

/// Routes every job across `opts.threads` worker threads (0 = hardware
/// concurrency). Jobs are claimed from a shared atomic counter; each worker
/// builds its own router, so no routing state is shared. The result vector
/// is indexed like `jobs` — identical output for any thread count.
std::vector<pipeline::RouteReport> run_batch(
    const std::vector<workloads::BenchmarkSpec>& jobs,
    const arch::Device& device, const Options& opts);

/// Full CLI: parse args, run single or batch mode, write QASM/stats to the
/// configured streams/files. Returns the process exit code.
int run_cli(const std::vector<std::string>& args, std::ostream& out,
            std::ostream& err);

}  // namespace codar::cli
