// The `compile` workload: the seeded suite draw on five devices, one
// circuit at a time on one thread — QASM text → qasm::parse →
// Pipeline::run (codar router, SABRE initial mapping, verification on,
// routed QASM rendered) → the stats JSON. What `codar FILE.qasm` and
// `--batch` users run, and what the paper evaluates; it never touches
// the service, the cache or the store.

#include <atomic>
#include <cmath>
#include <iostream>

#include "bench.hpp"

namespace perfbench {

namespace {

using codar::pipeline::Pipeline;
using codar::pipeline::RouteReport;

/// Rough wall time of one compile of the whole corpus on a 4-vCPU VM.
/// The corpus is compiled seconds / kCorpusSeconds times (at least twice):
/// a count fixed by --seconds, so the best-of statistic never depends on
/// how fast the host happens to be.
constexpr double kCorpusSeconds = 7.0;
constexpr int kSetupBatches = 25;

struct Job {
  std::size_t circuit;
  std::size_t device;
};

/// A compile-ready device: built, distance oracle prepared.
struct DeviceSlot {
  std::string spec;  ///< Registry spec; also the report's "device" label.
  std::unique_ptr<codar::arch::Device> device;
};

/// Devices built, oracles prepared and pipelines constructed: the
/// workload's set-up, which a user pays once per process.
struct Setup {
  std::vector<DeviceSlot> devices;
  std::vector<std::unique_ptr<Pipeline>> pipes;

  void build(const codar::pipeline::RoutingSpec& spec, Tracer* tracer) {
    pipes.clear();
    devices.clear();
    for (const std::string name : {"q16", "tokyo", "enfield", "sycamore", kNoisySpec}) {
      const Scope span(tracer, "arch.device", -1);
      DeviceSlot slot{name, std::make_unique<codar::arch::Device>(
                                codar::pipeline::DeviceRegistry::instance().make(name))};
      slot.device->graph.prepare();
      devices.push_back(std::move(slot));
    }
    for (const DeviceSlot& slot : devices) {
      const Scope span(tracer, "pipeline.build", -1);
      pipes.push_back(std::make_unique<Pipeline>(*slot.device, spec));
    }
  }
};

/// One job's output as the user sees it.
struct Output {
  RouteReport report;
  std::string stats;
};

template <typename CompileOne>
Result traced_compile(const RunConfig& cfg, const std::vector<CorpusCircuit>& corpus,
                      const std::vector<Job>& jobs, Setup& setup, CompileOne& compile_one);

}  // namespace

Result run_compile(const RunConfig& cfg) {
  Result res;
  const codar::pipeline::RoutingSpec spec;
  const std::vector<CorpusCircuit> corpus = draw_suite(cfg.seed);

  // Set-up is under a millisecond, so it is timed in batches of eight on
  // every lane (each with its own devices and pipelines) and reported as
  // the median batch's best lane, per set-up.
  Setup setup;
  setup.build(spec, nullptr);
  std::vector<Setup> lane_setups(kLanes);
  const std::vector<double> setup_ms =
      best_over_lanes(kSetupBatches, 1, [&](std::size_t, int lane, int) {
        return time_ms([&] {
                 for (int i = 0; i < 8; ++i) {
                   lane_setups[static_cast<std::size_t>(lane)].build(spec, nullptr);
                 }
               }) / 8.0;
      });

  std::vector<Job> jobs;
  for (std::size_t c = 0; c < corpus.size(); ++c) {
    for (std::size_t d = 0; d < setup.devices.size(); ++d) {
      if (corpus[c].qubits <= setup.devices[d].device->graph.num_qubits()) jobs.push_back({c, d});
    }
  }

  auto compile_one = [&](const Job& job) {
    const codar::ir::Circuit circuit =
        codar::qasm::parse(corpus[job.circuit].qasm, corpus[job.circuit].name);
    Output out;
    out.report = setup.pipes[job.device]->run(circuit, /*keep_qasm=*/true);
    out.stats = render_report(out.report, setup.devices[job.device].spec, spec);
    return out;
  };

  if (cfg.trace) return traced_compile(cfg, corpus, jobs, setup, compile_one);

  // The corpus is compiled in `repeats` passes, each job once per pass on
  // every lane, and every job is timed by its best run. A job's runs are
  // thus seconds apart, not back to back, so a slow spell of the host
  // cannot cover all of them. Lane 0 keeps the first output for the
  // checks; every other run must reproduce it byte for byte.
  const int repeats = std::max(2, static_cast<int>(std::lround(cfg.seconds / kCorpusSeconds)));
  std::vector<Output> first(jobs.size());
  std::vector<std::vector<std::uint64_t>> digests(kLanes, std::vector<std::uint64_t>(jobs.size()));
  std::vector<std::atomic<std::size_t>> changed(kLanes);
  std::vector<double> best_ms;
  for (int pass = 0; pass < repeats; ++pass) {
    const std::vector<double> ms =
        best_over_lanes(jobs.size(), 1, [&](std::size_t j, int lane, int) {
          Output out;
          const double ms = time_ms([&] { out = compile_one(jobs[j]); });
          const std::uint64_t digest = fnv1a(out.report.routed_qasm, fnv1a(out.stats));
          auto& mine = digests[static_cast<std::size_t>(lane)][j];
          if (pass == 0) mine = digest;
          if (digest != mine) ++changed[static_cast<std::size_t>(lane)];
          if (lane == 0 && pass == 0) first[j] = std::move(out);
          return ms;
        });
    if (best_ms.empty()) best_ms = ms;
    for (std::size_t j = 0; j < ms.size(); ++j) best_ms[j] = std::min(best_ms[j], ms[j]);
  }
  res.attempted += jobs.size() * (static_cast<std::size_t>(repeats) * kLanes - 1);
  for (std::size_t lane = 0; lane < kLanes; ++lane) {
    for (std::size_t j = 0; j < jobs.size(); ++j) {
      if (digests[lane][j] != digests[0][j]) {
        res.fail("lane " + std::to_string(lane) + " changed job " + std::to_string(j));
      }
    }
    for (std::size_t n = 0; n < changed[lane]; ++n) res.fail("a repeat changed a job's output");
  }

  // The independent check of every output, once.
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    ++res.attempted;
    const codar::arch::Device& device = *setup.devices[jobs[j].device].device;
    const codar::ir::Circuit lowered =
        codar::ir::decompose_toffoli(codar::qasm::parse(corpus[jobs[j].circuit].qasm));
    const codar::layout::Layout initial =
        setup.pipes[jobs[j].device]->mapping().choose(lowered, device);
    const std::string why =
        check_routed(lowered, initial, first[j].report.routed_qasm, device, first[j].report);
    if (!why.empty()) {
      res.fail(corpus[jobs[j].circuit].name + " on " + setup.devices[jobs[j].device].spec +
               ": " + why);
    }
  }

  // Deterministic outcome metrics, from the first pass.
  double log_ratio = 0.0, neg_log_esp = 0.0;
  std::size_t ratios = 0, swaps = 0, noisy = 0;
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    const RouteReport& r = first[j].report;
    if (r.depth_in > 0) {
      log_ratio += std::log(static_cast<double>(r.depth_out) / static_cast<double>(r.depth_in));
      ++ratios;
    }
    swaps += r.swaps;
    if (setup.devices[jobs[j].device].spec == kNoisySpec) {
      neg_log_esp -= r.log_esp;
      ++noisy;
    }
  }
  double compile_s = 0.0;
  for (const double ms : best_ms) compile_s += ms / 1e3;
  res.set("setup_s", median(setup_ms) / 1e3);
  res.set("compile_s", compile_s);
  res.set("compile_ms_p50", percentile(best_ms, 50));
  res.set("compile_ms_p95", percentile(best_ms, 95));
  res.set("latency_ms_p50", percentile(best_ms, 50));
  res.set("latency_ms_p99", percentile(best_ms, 99));
  res.set("throughput_rps", static_cast<double>(jobs.size()) / compile_s);
  res.set("depth_ratio_geomean", std::exp(log_ratio / static_cast<double>(ratios)));
  res.set("swaps_total", static_cast<double>(swaps));
  res.set("neg_log_esp_mean", neg_log_esp / static_cast<double>(noisy));

  // Facts for the determinism self-check.
  std::uint64_t corpus_digest = 14695981039346656037ull;
  std::string shape;
  for (const CorpusCircuit& c : corpus) {
    corpus_digest = fnv1a(c.qasm, corpus_digest);
    shape += c.family + ":" + std::to_string(c.qubits) + " ";
  }
  res.facts["corpus_digest"] = std::to_string(corpus_digest);
  res.facts["corpus_shape"] = shape;
  res.facts["jobs"] = std::to_string(jobs.size());
  for (const char* name : {"depth_ratio_geomean", "swaps_total", "neg_log_esp_mean"}) {
    res.facts[name] = std::to_string(res.metrics[name]);
  }
  return res;
}

namespace {

/// The traced run: set-up and one pass, each layer call in a span. Every
/// job is compiled untraced (Pipeline::run) and then traced, back to back,
/// so the tracing overhead is measured under the same host conditions;
/// the two outputs must agree byte for byte, and every output gets the
/// independent check plus, on small circuits, the statevector check.
template <typename CompileOne>
Result traced_compile(const RunConfig& cfg, const std::vector<CorpusCircuit>& corpus,
                      const std::vector<Job>& jobs, Setup& setup, CompileOne& compile_one) {
  Result res;
  const codar::pipeline::RoutingSpec spec;
  std::vector<double> device_s, build_s;
  for (int i = 0; i < 25; ++i) {
    Tracer setup_trace;
    setup.build(spec, &setup_trace);
    device_s.push_back(setup_trace.total("arch.device"));
    build_s.push_back(setup_trace.total("pipeline.build"));
  }
  Tracer tracer;
  std::size_t parse_bytes = 0, swaps_c = 0, forced = 0, escape = 0, cycles = 0;
  std::size_t simulated = 0;
  double untraced_s = 0.0;
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    const auto id = static_cast<std::int64_t>(j);
    const CorpusCircuit& item = corpus[jobs[j].circuit];
    const codar::arch::Device& device = *setup.devices[jobs[j].device].device;
    const auto t0 = Clock::now();
    const Output plain = compile_one(jobs[j]);
    untraced_s += seconds_since(t0);
    codar::ir::Circuit circuit(0);
    std::optional<codar::core::RoutingResult> result;
    RouteReport r;
    std::string stats;
    {
      const Scope root(&tracer, "compile.job", id);
      {
        const Scope span(&tracer, "qasm.parse", id);
        circuit = codar::qasm::parse(item.qasm, item.name);
      }
      r = traced_pipeline(*setup.pipes[jobs[j].device], device, circuit,
                          /*keep_qasm=*/true, &tracer, id, &result);
      const Scope span(&tracer, "render.stats", id);
      stats = render_report(r, setup.devices[jobs[j].device].spec, spec);
    }
    parse_bytes += item.qasm.size();
    swaps_c += r.swaps;
    forced += r.forced_swaps;
    escape += r.escape_swaps;
    cycles += r.cycles;
    ++res.attempted;
    if (stats != plain.stats || r.routed_qasm != plain.report.routed_qasm) {
      res.fail("traced pipeline differs from Pipeline::run on " + item.name);
    }
    const codar::ir::Circuit lowered = codar::ir::decompose_toffoli(circuit);
    std::string why = check_routed(lowered, result->initial, r.routed_qasm, device, r);
    if (why.empty()) why = check_statevector(lowered, *result, cfg.seed + j);
    if (why == "skip") {
      why.clear();
    } else if (why.empty()) {
      ++simulated;
    }
    if (!why.empty()) res.fail(item.name + ": " + why);
  }
  const double traced_s = tracer.total("compile.job");
  std::cerr << "perfbench: statevector-checked " << simulated << " of " << jobs.size()
            << " jobs\n";

  res.set("qasm.parse_s", tracer.total("qasm.parse"));
  res.set("qasm.parse_bytes", static_cast<double>(parse_bytes));
  res.set("qasm.render_s", tracer.total("qasm.render"));
  res.set("ir.lower_s", tracer.total("ir.lower"));
  res.set("arch.device_s", median(device_s));
  res.set("pipeline.build_s", median(build_s));
  res.set("sabre.initial_s", tracer.total("sabre.initial"));
  res.set("core.route_s", tracer.total("core.route"));
  res.set("core.verify_s", tracer.total("core.verify"));
  res.set("core.swaps", static_cast<double>(swaps_c));
  res.set("core.forced_swaps", static_cast<double>(forced));
  res.set("core.escape_swaps", static_cast<double>(escape));
  res.set("core.cycles", static_cast<double>(cycles));
  res.set("schedule.asap_s", tracer.total("schedule.asap"));
  res.set("cost.esp_s", tracer.total("cost.esp"));
  res.set("pipeline.self_s", tracer.self("pipeline.run"));
  res.set("render.stats_s", tracer.total("render.stats"));
  res.set("trace.overhead_s", traced_s - untraced_s);
  const double covered = tracer.total("qasm.parse") + tracer.total("pipeline.run") +
                         tracer.total("render.stats");
  std::cerr << "perfbench: spans cover " << covered / tracer.total("compile.job") * 100.0
            << "% of traced compile time; pipeline self time "
            << tracer.self("pipeline.run") / tracer.total("pipeline.run") * 100.0 << "%\n";
  tracer.write(cfg.out_dir + "/compile-" + std::to_string(cfg.seed) + "-trace.ndjson");
  return res;
}

}  // namespace

}  // namespace perfbench
