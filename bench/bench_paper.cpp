// Reproduces the paper's figures and tables through the public compilation
// pipeline, then compares the fidelity-aware router with CODAR and routes
// a large-lattice scaling sweep. Every measured row is one (device,
// circuit, RoutingSpec) run of pipeline::Pipeline: routers and initial
// mappings are chosen by registry name, CODAR's ablations are set through
// `spec.codar`, and the paper's evaluation protocol is written once, in
// protocol() below. Usage:
//
//   bench_paper [OUTPUT.json]        (default BENCH_paper.json)
//
// Prints each section's table and writes to OUTPUT every row's weighted
// depth, SWAP count, router makespan, simulated cycles and log-ESP, plus
// the summary rows' mean / geomean / wins (the gated fields), with wall
// time, the Fig. 9 fidelities and the paper's means as informational
// fields. Doubles are rounded to 12 significant digits so the baseline is
// immune to sub-ulp libm noise.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "codar/arch/device_parameters.hpp"
#include "codar/common/table.hpp"
#include "codar/pipeline/device_registry.hpp"
#include "codar/pipeline/pipeline.hpp"
#include "codar/qasm/parser.hpp"
#include "codar/sim/noisy_simulator.hpp"
#include "codar/workloads/generators.hpp"
#include "codar/workloads/suite.hpp"

namespace {

using namespace codar;
using pipeline::RouteReport;
using pipeline::RoutingSpec;
using Suite = std::vector<workloads::BenchmarkSpec>;
using Circuits = std::vector<ir::Circuit>;
using Variants = std::vector<std::pair<std::string, RoutingSpec>>;
using Fields = std::vector<std::pair<std::string, std::string>>;

/// The paper's evaluation protocol: every router starts from the SABRE
/// reverse-traversal initial mapping (2 rounds, seed 17, searched over the
/// whole circuit as published), and routed circuits are scored by
/// duration-weighted depth.
RoutingSpec protocol(const std::string& router) {
  RoutingSpec spec;
  spec.router = router;
  spec.mapping = "sabre";
  spec.mapping_rounds = 2;
  spec.mapping_horizon = 0;
  spec.seed = 17;
  return spec;
}

arch::Device device(const std::string& spec) {
  return pipeline::DeviceRegistry::instance().make(spec);
}

std::string fmt12(double v) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%.12g", v);
  return buf;
}

/// num / den, with an empty denominator counting as a tie.
double ratio(double num, double den) { return den == 0 ? 1.0 : num / den; }

/// Mean, geomean and win count over a series of ratios.
struct Ratios {
  double sum = 0.0, log_sum = 0.0;
  int count = 0, wins = 0;

  void add(double r) {
    sum += r;
    log_sum += std::log(r);
    ++count;
    if (r > 1.0) ++wins;
  }
  double mean() const { return sum / count; }
  double geomean() const { return std::exp(log_sum / count); }
};

/// The suite circuits named in `names`, in suite order.
Circuits pick(const Suite& suite, const std::vector<std::string>& names) {
  Circuits out;
  for (const workloads::BenchmarkSpec& spec : suite) {
    if (std::find(names.begin(), names.end(), spec.name) != names.end()) {
      out.push_back(spec.circuit);
    }
  }
  return out;
}

void header(const std::string& title) {
  std::cout << "\n=== " << title << " ===\n\n";
}

/// Runs rows through the pipeline and renders them as the bench JSON.
class Bench {
 public:
  /// Routes `circuit` on `dev` under `spec` and records the row `name`.
  /// A failed or unverified route aborts the bench.
  RouteReport run(const std::string& name, const arch::Device& dev,
                  const ir::Circuit& circuit, const RoutingSpec& spec,
                  bool keep_qasm = false) {
    const auto start = std::chrono::steady_clock::now();
    RouteReport r = pipeline::Pipeline(dev, spec).run(circuit, keep_qasm);
    const double ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - start)
                          .count();
    if (!r.ok()) throw std::runtime_error(name + ": " + r.error);
    total_ms_ += ms;
    ++routes_;
    add(name, {{"depth", std::to_string(r.depth_out)},
               {"swaps", std::to_string(r.swaps)},
               {"makespan", std::to_string(r.makespan)},
               {"cycles", std::to_string(r.cycles)},
               {"log_esp", fmt12(r.log_esp)},
               {"wall_ms", fmt_fixed(ms, 3)}});
    return r;
  }

  /// Appends the row `name` with pre-rendered JSON values.
  void add(const std::string& name, const Fields& fields) {
    rows_.push_back("\"name\": \"" + name + "\"");
    annotate(fields);
  }

  /// Appends fields to the last row.
  void annotate(const Fields& fields) {
    for (const auto& [key, value] : fields) {
      rows_.back() += ", \"" + key + "\": " + value;
    }
  }

  int routes() const { return routes_; }

  std::string json() const {
    std::string out =
        "{\"gated_fields\": [\"depth\", \"swaps\", \"makespan\", \"cycles\", "
        "\"log_esp\", \"mean\", \"geomean\", \"wins\"],\n \"results\": [";
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      out += (i == 0 ? "\n  {" : ",\n  {") + rows_[i] + "}";
    }
    return out + "\n ],\n \"summary\": {\"routes\": " +
           std::to_string(routes_) +
           ", \"total_wall_ms\": " + fmt_fixed(total_ms_, 1) + "}}\n";
  }

 private:
  std::vector<std::string> rows_;
  int routes_ = 0;
  double total_ms_ = 0.0;
};

/// SABRE's weighted depth over CODAR's on one circuit: the Fig. 8 metric.
double speedup(Bench& bench, const std::string& name,
               const arch::Device& dev, const ir::Circuit& circuit) {
  const RouteReport codar =
      bench.run(name + "/codar", dev, circuit, protocol("codar"));
  const RouteReport sabre =
      bench.run(name + "/sabre", dev, circuit, protocol("sabre"));
  return ratio(sabre.depth_out, codar.depth_out);
}

/// Routes `circuits` under every variant and tabulates each against
/// variant `ref`: geomean depth ratio, mean SWAP ratio, mean SWAPs and
/// total route time.
void sweep(Bench& bench, const std::string& figure, const arch::Device& dev,
           const Circuits& circuits, const Variants& variants,
           std::size_t ref = 0) {
  std::vector<std::vector<RouteReport>> reports(variants.size());
  for (std::size_t v = 0; v < variants.size(); ++v) {
    for (const ir::Circuit& c : circuits) {
      reports[v].push_back(
          bench.run(figure + "/" + variants[v].first + "/" + c.name(), dev,
                    c, variants[v].second));
    }
  }
  const std::string& base = variants[ref].first;
  Table table({figure, "circuits", "geomean depth vs " + base,
               "mean swaps vs " + base, "mean swaps", "route ms"});
  for (std::size_t v = 0; v < variants.size(); ++v) {
    Ratios depth, swaps;
    double swap_sum = 0.0;
    std::size_t route_us = 0;
    for (std::size_t i = 0; i < circuits.size(); ++i) {
      const RouteReport& r = reports[v][i];
      depth.add(ratio(r.depth_out, reports[ref][i].depth_out));
      swaps.add(ratio(r.swaps, reports[ref][i].swaps));
      swap_sum += static_cast<double>(r.swaps);
      route_us += r.route_us;
    }
    table.add_row({variants[v].first, std::to_string(circuits.size()),
                   fmt_fixed(depth.geomean(), 3), fmt_fixed(swaps.mean(), 2),
                   fmt_fixed(swap_sum / depth.count, 1),
                   std::to_string(route_us / 1000)});
  }
  table.print(std::cout);
}

void table1() {
  header("Table I - parameter survey of quantum computing devices");
  Table survey({"device", "technology", "1q gates", "2q gates", "F(1q)",
                "F(2q)", "F(readout)", "t(1q) us", "t(2q) us", "T1 us",
                "T2 us", "2q/1q cycles"});
  const auto time_str = [](double v) {
    return v < 0 ? std::string("~inf") : fmt_fixed(v, 2);
  };
  for (const arch::DeviceParameters& p : arch::table1_parameters()) {
    survey.add_row(
        {p.device, p.technology, p.one_qubit_gates, p.two_qubit_gates,
         fmt_fixed(p.fidelity_1q, 4), fmt_fixed(p.fidelity_2q, 3),
         fmt_fixed(p.fidelity_readout, 3), fmt_fixed(p.time_1q_us, 2),
         fmt_fixed(p.time_2q_us, 2), time_str(p.t1_us), time_str(p.t2_us),
         std::to_string(arch::duration_ratio_cycles(p))});
  }
  survey.print(std::cout);
}

// Figs. 1 and 2 on the 2x2 lattice, from the identity mapping. Fig. 1:
// in "T q[2]; CX q[0],q[3]" SWAPs touching Q2 serialize behind T, and the
// qubit lock picks one that runs in parallel (depth 8, not 9; the four
// candidates' what-if schedules are pinned as a scheduler test). Fig. 2:
// on the QFT-4 fragment T q[1] frees its qubit a cycle before CX q[0],q[2]
// and only the duration-aware router uses that cycle.
void fig1_fig2(Bench& bench) {
  header("Figs. 1 and 2 - context and duration awareness (2x2 lattice)");
  const arch::Device dev = device("grid:2x2");
  ir::Circuit fig1(4, "fig1");
  fig1.t(2);
  fig1.cx(0, 3);
  ir::Circuit fragment(4, "qft4_fragment");
  fragment.t(1);
  fragment.cx(0, 2);
  fragment.cx(0, 3);
  Table table({"workload", "router", "chosen SWAPs", "weighted depth"});
  for (const ir::Circuit& c : {fig1, fragment, workloads::qft(4)}) {
    for (const bool aware : {true, false}) {
      RoutingSpec spec = protocol("codar");
      spec.mapping = "identity";
      spec.codar.duration_aware = aware;
      const std::string variant = aware ? "aware" : "blind";
      const RouteReport r = bench.run(
          "motivation/" + c.name() + "/" + variant, dev, c, spec, true);
      const ir::Circuit routed = qasm::parse(r.routed_qasm);
      std::string swaps;
      for (const ir::Gate& g : routed.gates()) {
        if (g.kind() != ir::GateKind::kSwap) continue;
        swaps += (swaps.empty() ? "" : ", ") + g.to_string();
      }
      table.add_row({c.name(), "CODAR (duration-" + variant + ")", swaps,
                     std::to_string(r.depth_out)});
    }
  }
  table.print(std::cout);
}

// Fig. 8: CODAR's speedup over SABRE on the four evaluation architectures;
// benchmarks wider than a device are skipped on it.
void fig8(Bench& bench, const Suite& suite) {
  header("Fig. 8 - CODAR vs SABRE speedup (weighted depth ratio)");
  const std::string archs[] = {"q16", "enfield", "tokyo", "sycamore"};
  const char* const paper_means[] = {"1.212", "1.241", "1.214", "1.258"};
  std::vector<arch::Device> devices;
  std::vector<std::string> columns = {"benchmark", "qubits", "gates"};
  for (const std::string& a : archs) {
    devices.push_back(device(a));
    columns.push_back(devices.back().name);
  }
  Table per_bench(columns);
  std::vector<Ratios> speedups(devices.size());
  for (const workloads::BenchmarkSpec& spec : suite) {
    std::vector<std::string> row = {spec.name,
                                    std::to_string(spec.circuit.num_qubits()),
                                    std::to_string(spec.circuit.size())};
    for (std::size_t d = 0; d < devices.size(); ++d) {
      if (spec.circuit.num_qubits() > devices[d].graph.num_qubits()) {
        row.push_back("-");
        continue;
      }
      const double s = speedup(bench, "fig8/" + archs[d] + "/" + spec.name,
                               devices[d], spec.circuit);
      speedups[d].add(s);
      row.push_back(fmt_fixed(s, 3));
    }
    per_bench.add_row(std::move(row));
  }
  per_bench.print(std::cout);

  Table summary({"architecture", "benchmarks", "mean speedup",
                 "geomean speedup", "CODAR wins", "paper mean"});
  for (std::size_t d = 0; d < devices.size(); ++d) {
    const Ratios& s = speedups[d];
    summary.add_row({devices[d].name, std::to_string(s.count),
                     fmt_fixed(s.mean(), 3), fmt_fixed(s.geomean(), 3),
                     std::to_string(s.wins), paper_means[d]});
    bench.add("fig8/" + archs[d], {{"benchmarks", std::to_string(s.count)},
                                   {"mean", fmt12(s.mean())},
                                   {"geomean", fmt12(s.geomean())},
                                   {"wins", std::to_string(s.wins)},
                                   {"paper_mean", paper_means[d]}});
  }
  std::cout << "\n";
  summary.print(std::cout);
}

// CODAR's features switched off one at a time, then all at once; a depth
// ratio above 1 means the feature shortens schedules.
void ablation_features(Bench& bench, const Suite& suite) {
  header("Ablation - CODAR feature switches (IBM Q20 Tokyo)");
  using Feature = bool core::CodarConfig::*;
  const std::pair<const char*, Feature> features[] = {
      {"no-context", &core::CodarConfig::context_aware},
      {"no-duration", &core::CodarConfig::duration_aware},
      {"no-commutativity", &core::CodarConfig::commutativity_aware},
      {"no-fine-priority", &core::CodarConfig::fine_priority}};
  Variants variants = {{"full", protocol("codar")}};
  RoutingSpec all_off = protocol("codar");
  for (const auto& [name, feature] : features) {
    RoutingSpec spec = protocol("codar");
    spec.codar.*feature = false;
    all_off.codar.*feature = false;
    variants.emplace_back(name, spec);
  }
  variants.emplace_back("all-off", all_off);
  sweep(bench, "features", device("tokyo"),
        pick(suite, {"qft_10", "bv_12", "wstate_13", "grover_5", "cuccaro_5",
                     "draper_5", "qaoa_12_3", "ansatz_13_8", "ising_14_12",
                     "tofchain_9_6", "random_14_1500", "simon_8"}),
        variants);
}

// The gate-duration spread (the maQAM's configurable tau): CODAR's
// geomean speedup over SABRE on a 4x4 lattice across 2q/1q ratios (SWAP =
// 3 x 2q) and Table I's technology presets.
void ablation_durations(Bench& bench) {
  header("Ablation - gate-duration spread (grid 4x4)");
  const Circuits circuits = {
      workloads::qft(10), workloads::bernstein_vazirani(12, 0xFFF),
      workloads::draper_adder(6), workloads::qaoa_maxcut(12, 2, 3),
      workloads::random_circuit(14, 1200, 0.5, 5)};
  std::vector<std::pair<std::string, arch::DurationMap>> spreads;
  for (const int r : {1, 2, 3, 4, 8, 12}) {
    arch::DurationMap durations;
    durations.set_all_two_qubit(r);
    durations.set(ir::GateKind::kSwap, 3 * r);
    spreads.emplace_back("ratio-" + std::to_string(r), durations);
  }
  spreads.emplace_back("superconducting",
                       arch::DurationMap::superconducting());
  spreads.emplace_back("ion-trap", arch::DurationMap::ion_trap());
  spreads.emplace_back("neutral-atom", arch::DurationMap::neutral_atom());
  spreads.emplace_back("uniform", arch::DurationMap::uniform());

  Table table({"durations", "1q", "2q", "SWAP", "geomean speedup"});
  for (const auto& [name, durations] : spreads) {
    const arch::Device dev = arch::grid(4, 4, durations);
    Ratios speedups;
    for (const ir::Circuit& c : circuits) {
      speedups.add(
          speedup(bench, "durations/" + name + "/" + c.name(), dev, c));
    }
    table.add_row({name, std::to_string(durations.of(ir::GateKind::kH)),
                   std::to_string(durations.of(ir::GateKind::kCX)),
                   std::to_string(durations.of(ir::GateKind::kSwap)),
                   fmt_fixed(speedups.geomean(), 3)});
  }
  table.print(std::cout);
}

// CODAR's commutative-front scan cap (0 = unbounded): quality flattens
// well before the unbounded scan while route time keeps growing.
void ablation_window(Bench& bench, const Suite& suite) {
  header("Ablation - CF scan window (IBM Q20 Tokyo)");
  Variants variants;
  for (const int window : {1, 4, 16, 64, 150, 512, 0}) {
    RoutingSpec spec = protocol("codar");
    spec.codar.front_window = window;
    variants.emplace_back(std::to_string(window), spec);
  }
  sweep(bench, "window", device("tokyo"),
        pick(suite, {"qft_16", "draper_8", "qaoa_16_3", "random_14_1500",
                     "random_16_4000", "grover_8"}),
        variants, /*ref=*/4);
}

// CODAR against both heuristic baselines of the paper's related work,
// SABRE (Li et al.) and the layered A* mapper (Zulehner et al.), on the
// 20..2000-gate suite benchmarks that fit Tokyo; above 1 means CODAR wins.
void baselines(Bench& bench, const Suite& suite) {
  header("Baselines - CODAR vs SABRE vs A*-layers (IBM Q20 Tokyo)");
  Circuits circuits;
  for (const workloads::BenchmarkSpec& spec : suite) {
    const std::size_t gates = spec.circuit.size();
    if (spec.circuit.num_qubits() <= 20 && gates >= 20 && gates <= 2000) {
      circuits.push_back(spec.circuit);
    }
  }
  sweep(bench, "baselines", device("tokyo"), circuits,
        {{"codar", protocol("codar")},
         {"sabre", protocol("sabre")},
         {"astar", protocol("astar")}});
}

// CODAR under each registered initial mapping; below 1 beats identity.
void initial_mapping(Bench& bench, const Suite& suite) {
  header("Initial-mapping strategies (CODAR on IBM Q20 Tokyo)");
  Variants variants;
  for (const char* mapping : {"identity", "greedy", "sabre"}) {
    RoutingSpec spec = protocol("codar");
    spec.mapping = mapping;
    variants.emplace_back(mapping, spec);
  }
  sweep(bench, "mapping", device("tokyo"),
        pick(suite, {"qft_10", "bv_12", "wstate_13", "draper_5", "qaoa_12_3",
                     "ansatz_13_8", "random_14_1500", "simon_8", "cuccaro_5",
                     "ising_14_12"}),
        variants);
}

// Fig. 9: fidelity of the routed famous algorithms under exact
// density-matrix simulation, dephasing-dominant and damping-dominant.
void fig9(Bench& bench) {
  header("Fig. 9 - fidelity maintenance (3x3 lattice, T2 or T1 = 600)");
  const arch::Device dev = device("grid:3x3");
  const sim::NoiseParams regimes[] = {
      sim::NoiseParams::dephasing_dominant(600.0),
      sim::NoiseParams::damping_dominant(600.0)};
  const char* const fields[] = {"f_dephase", "f_damp"};
  const char* const routers[] = {"codar", "sabre"};
  Table table({"algorithm", "qubits", "depth CODAR", "depth SABRE",
               "F(dephase) CODAR", "F(dephase) SABRE", "F(damp) CODAR",
               "F(damp) SABRE"});
  double means[2][2] = {};  // [regime][router]
  const Suite algorithms = workloads::famous_algorithms();
  for (const workloads::BenchmarkSpec& spec : algorithms) {
    std::vector<std::string> cells(8);
    cells[0] = spec.name;
    cells[1] = std::to_string(spec.circuit.num_qubits());
    for (int k = 0; k < 2; ++k) {
      const RouteReport r =
          bench.run("fig9/" + spec.name + "/" + routers[k], dev,
                    spec.circuit, protocol(routers[k]), true);
      const ir::Circuit routed = qasm::parse(r.routed_qasm);
      cells[2 + k] = std::to_string(r.depth_out);
      for (int g = 0; g < 2; ++g) {
        const double f = sim::noisy_fidelity_density(
            routed, dev.graph.num_qubits(), dev.durations, regimes[g]);
        means[g][k] += f / static_cast<double>(algorithms.size());
        cells[4 + 2 * g + k] = fmt_fixed(f, 4);
        bench.annotate({{fields[g], fmt12(f)}});
      }
    }
    table.add_row(std::move(cells));
  }
  table.add_row({"average", "", "", "", fmt_fixed(means[0][0], 4),
                 fmt_fixed(means[0][1], 4), fmt_fixed(means[1][0], 4),
                 fmt_fixed(means[1][1], 4)});
  table.print(std::cout);
}

// codar-fid against plain CODAR on the two calibrated example device
// files, both under the default RoutingSpec (what `codar` runs); codar-fid
// wins a benchmark when its estimated success probability is higher.
void fidelity(Bench& bench, const Suite& suite) {
  header("Fidelity-aware routing - codar-fid vs codar (default spec)");
  RoutingSpec fid;
  fid.router = "codar-fid";
  Table table({"device", "benchmarks", "codar-fid wins"});
  for (const std::string file : {"tokyo_calibrated", "tokyo-noisy"}) {
    const arch::Device dev = device(std::string("file:") + CODAR_SOURCE_ROOT +
                                    "/examples/devices/" + file + ".json");
    int count = 0, wins = 0;
    for (const workloads::BenchmarkSpec& spec : suite) {
      if (spec.circuit.num_qubits() > dev.graph.num_qubits()) continue;
      const std::string name = "fidelity/" + file + "/" + spec.name;
      const RouteReport plain =
          bench.run(name + "/codar", dev, spec.circuit, RoutingSpec());
      const RouteReport aware =
          bench.run(name + "/codar-fid", dev, spec.circuit, fid);
      ++count;
      if (aware.log_esp > plain.log_esp) ++wins;
    }
    bench.add("fidelity/" + file, {{"benchmarks", std::to_string(count)},
                                   {"wins", std::to_string(wins)}});
    table.add_row({file, std::to_string(count), std::to_string(wins)});
  }
  table.print(std::cout);
}

// CODAR on large lattices, up to 100k gates over 2500 qubits, from the
// identity layout: deterministic, and the SABRE layout search does not
// swamp the router. Lattices above arch::kDenseOracleMaxQubits qubits
// route through the on-demand distance oracle.
void scaling(Bench& bench) {
  header("Scaling - CODAR on large lattices (identity layout)");
  struct Workload {
    std::string name, device;
    ir::Circuit circuit;
  };
  const Workload sweep[] = {
      {"grid16x16_rand_10k", "grid:16x16",
       workloads::random_circuit(256, 10'000, 0.5, 21)},
      {"grid32x32_rand_25k", "grid:32x32",
       workloads::random_circuit(1024, 25'000, 0.5, 22)},
      {"grid50x50_rand_25k", "grid:50x50",
       workloads::random_circuit(2500, 25'000, 0.5, 23)},
      {"grid50x50_ising_2500", "grid:50x50",
       workloads::ising_trotter(2500, 10)},
      {"grid50x50_rand_100k", "grid:50x50",
       workloads::random_circuit(2500, 100'000, 0.5, 24)}};
  RoutingSpec spec;
  spec.mapping = "identity";
  Table table({"workload", "qubits", "gates", "swaps", "makespan",
               "route ms"});
  for (const Workload& w : sweep) {
    const RouteReport r =
        bench.run("scaling/" + w.name, device(w.device), w.circuit, spec);
    table.add_row({w.name, std::to_string(w.circuit.num_qubits()),
                   std::to_string(w.circuit.size()), std::to_string(r.swaps),
                   std::to_string(r.makespan),
                   std::to_string(r.route_us / 1000)});
  }
  table.print(std::cout);
}

}  // namespace

int main(int argc, char** argv) {
  const std::string output = argc > 1 ? argv[1] : "BENCH_paper.json";
  try {
    const Suite suite = workloads::benchmark_suite();
    Bench bench;
    table1();
    fig1_fig2(bench);
    fig8(bench, suite);
    ablation_features(bench, suite);
    ablation_durations(bench);
    ablation_window(bench, suite);
    baselines(bench, suite);
    initial_mapping(bench, suite);
    fig9(bench);
    fidelity(bench, suite);
    scaling(bench);

    std::ofstream out(output);
    if (!out) throw std::runtime_error("cannot write " + output);
    out << bench.json();
    std::cout << "\n" << bench.routes() << " routes -> " << output << "\n";
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
