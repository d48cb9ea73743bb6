#pragma once

// The canonical JSON rendering of route reports, plus the one-circuit
// convenience wrapper the batch driver and the `codar serve` service
// share. The pipeline itself (stage sequence, pass resolution, report
// production) lives in codar::pipeline — this header is the presentation
// layer: RouteReport → stable-key-order JSON, byte-identical across entry
// points (the serve differential test locks `to_json` output against
// batch output).

#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "codar/arch/device.hpp"
#include "codar/cli/options.hpp"
#include "codar/ir/circuit.hpp"
#include "codar/pipeline/pipeline.hpp"

namespace codar::cli {

/// Routes one circuit on `device` per `opts` (router, mapping, knobs,
/// verify) through a freshly resolved pipeline::Pipeline. Never throws for
/// routing/verification problems — failures (including unknown router or
/// mapping names) land in `error`. `keep_qasm` controls whether
/// routed_qasm is rendered.
pipeline::RouteReport route_circuit(const ir::Circuit& circuit,
                                    const arch::Device& device,
                                    const Options& opts, bool keep_qasm);

/// Writes `s` as a JSON string literal (quoted, escaped) to `out`.
void append_json_string(std::ostream& out, std::string_view s);

/// JSON object for one report (stable key order, integers only; the
/// nondeterministic route_us/stage_us fields appear only under
/// opts.timing).
std::string to_json(const pipeline::RouteReport& report,
                    const Options& opts);

/// JSON array over all reports plus a summary object.
std::string to_json(const std::vector<pipeline::RouteReport>& reports,
                    const Options& opts);

}  // namespace codar::cli
