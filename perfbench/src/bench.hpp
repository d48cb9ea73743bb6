#pragma once

// Shared pieces of the whole-system benchmark: the seeded input corpus,
// the benchmark's own report rendering and output checks, span tracing,
// and the result record every workload fills in.

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "codar/codar.hpp"
#include "codar/pipeline/device_registry.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// splitmix64: the one RNG of the benchmark, so a seed names the same
/// inputs on every platform and standard library.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, n).
  std::size_t below(std::size_t n) { return next() % n; }
  /// Uniform double in [0, 1).
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

 private:
  std::uint64_t state_;
};

// ---- statistics -----------------------------------------------------------

/// Linear-interpolated percentile, q in [0, 100]. Empty input gives 0.
double percentile(std::vector<double> values, double q);
inline double median(std::vector<double> values) {
  return percentile(std::move(values), 50.0);
}

/// Runs `fn(item, lane, repeat)` for every item, `repeats` times back to
/// back, on kLanes threads at once, each pinned to its own vCPU, and
/// returns every item's best time over all lanes and repeats. `fn` returns
/// the time of what it measured, ms. The host slows its vCPUs down
/// independently and in spells of seconds, so the best lane is the
/// steadiest estimate of the work itself. `fn` must be safe to call from
/// several threads.
std::vector<double> best_over_lanes(std::size_t items, int repeats,
                                    const std::function<double(std::size_t, int, int)>& fn);

/// Wall time of `fn()`, ms.
template <typename Fn>
double time_ms(Fn&& fn) {
  const auto t0 = Clock::now();
  fn();
  return seconds_since(t0) * 1e3;
}
/// Concurrent timing lanes (one per vCPU on a 4-vCPU VM).
inline constexpr unsigned kLanes = 4;

// ---- result record --------------------------------------------------------

/// What one invocation prints as its last stdout line. Metric units live
/// in one table (main.cpp); per-layer metrics a workload leaves unset
/// print as 0.
struct Result {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  bool valid = true;  ///< False when a validity check (not an output) failed.
  std::map<std::string, double> metrics;
  /// Deterministic facts for the determinism self-check (written to the
  /// run summary, not printed as metrics).
  std::map<std::string, std::string> facts;

  void set(const std::string& name, double value) { metrics[name] = value; }
  void fail(const std::string& what);
};

// ---- devices and corpus ---------------------------------------------------

/// The calibrated noisy Tokyo shipped with the benchmark.
inline constexpr const char* kNoisySpec = "file:perfbench/devices/tokyo-noisy.json";

/// One seeded circuit of the corpus, rendered as OpenQASM 2.0.
struct CorpusCircuit {
  std::string name;    ///< Family and size, e.g. "qft_8".
  std::string family;
  int qubits = 0;
  std::size_t gates = 0;
  std::string qasm;
};

/// Draws one variant of every suite slot (the 71 built-in benchmark
/// sizes) from `seed`: seeded generator parameters where the family has
/// them and a seeded relabelling of the qubits everywhere, so two seeds
/// give different circuits of the same families and sizes.
std::vector<CorpusCircuit> draw_suite(std::uint64_t seed);

/// FNV-1a 64 over a byte string (corpus digests).
std::uint64_t fnv1a(const std::string& bytes, std::uint64_t h = 14695981039346656037ull);

// ---- rendering and checks -------------------------------------------------

/// `s` as a JSON string literal.
std::string json_quote(const std::string& s);
/// Shortest round-trip rendering of a double.
std::string json_number(double v);

/// The benchmark's own rendering of a route report: the `result` object
/// of a serve response and the stats line of the batch CLI, key for key.
std::string render_report(const codar::pipeline::RouteReport& report,
                          const std::string& device_label,
                          const codar::pipeline::RoutingSpec& spec);

/// Independent check of one compiled circuit, without core::verify_routing:
/// parses the routed QASM text, confirms every two-qubit gate sits on a
/// device edge, and confirms that the non-SWAP gates, mapped back through
/// the initial layout and the SWAPs, are exactly the lowered input's gates.
/// Returns an empty string on success, else the reason.
std::string check_routed(const codar::ir::Circuit& lowered,
                         const codar::layout::Layout& initial,
                         const std::string& routed_qasm,
                         const codar::arch::Device& device,
                         const codar::pipeline::RouteReport& report);

/// Statevector equivalence of input and routed circuit up to the initial
/// and final layouts. Returns "" on success, "skip" when the circuit is
/// too wide to simulate, else the reason.
std::string check_statevector(const codar::ir::Circuit& lowered,
                              const codar::core::RoutingResult& result,
                              std::uint64_t seed);

// ---- tracing --------------------------------------------------------------

/// Spans recorded around the benchmark's calls into each layer. Kept in
/// memory, written out at exit, reduced to per-layer metrics. A null
/// Tracer* means tracing is off and costs one branch per call site.
class Tracer {
 public:
  struct Span {
    const char* name;
    std::int64_t start_ns;
    std::int64_t end_ns;
    std::int32_t parent;   ///< Index of the enclosing span, -1 for roots.
    std::int64_t request;  ///< Request / job id shared by one item's spans.
  };

  int begin(const char* name, std::int64_t request);
  void end(int index);

  /// Total duration (s) of spans named `name`.
  double total(const std::string& name) const;
  /// Self time (s) of spans named `name`: duration minus direct children.
  double self(const std::string& name) const;
  void write(const std::string& path) const;

 private:
  Clock::time_point epoch_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// RAII span; no-op for a null tracer.
class Scope {
 public:
  Scope(Tracer* tracer, const char* name, std::int64_t request)
      : tracer_(tracer), index_(tracer ? tracer->begin(name, request) : -1) {}
  ~Scope() {
    if (tracer_) tracer_->end(index_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* tracer_;
  int index_;
};

/// The pipeline's stage sequence, called layer by layer so each call gets
/// a span. Produces a report identical to Pipeline::run's (the traced run
/// checks that), and hands back the routing result for the statevector
/// check.
codar::pipeline::RouteReport traced_pipeline(
    const codar::pipeline::Pipeline& pipe, const codar::arch::Device& device,
    const codar::ir::Circuit& circuit, bool keep_qasm, Tracer* tracer,
    std::int64_t request,
    std::optional<codar::core::RoutingResult>* result_out = nullptr);

// ---- workloads ------------------------------------------------------------

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".bench_out";  ///< Scratch space inside the checkout.
};

Result run_compile(const RunConfig& cfg);
Result run_serve(const RunConfig& cfg, bool restart);

/// Peak resident set of this process, MB.
double peak_rss_mb();

}  // namespace perfbench
