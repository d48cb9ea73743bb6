// Seeded inputs: the device set and the circuit corpus, plus the small
// helpers (statistics, result record, peak memory) every workload uses.

#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <iostream>
#include <thread>

#include "bench.hpp"

namespace perfbench {

using codar::ir::Circuit;
using codar::ir::Qubit;
namespace wl = codar::workloads;

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q / 100.0 * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

std::vector<double> best_over_lanes(std::size_t items, int repeats,
                                    const std::function<double(std::size_t, int, int)>& fn) {
  const unsigned lanes = kLanes;
  std::vector<std::vector<double>> best(lanes, std::vector<double>(items, 0.0));
  auto lane_main = [&](unsigned lane) {
    cpu_set_t cpus;
    CPU_ZERO(&cpus);
    CPU_SET(lane, &cpus);
    // Best effort: on a machine with fewer vCPUs the lanes just share them.
    pthread_setaffinity_np(pthread_self(), sizeof cpus, &cpus);
    for (std::size_t item = 0; item < items; ++item) {
      for (int r = 0; r < repeats; ++r) {
        const double ms = fn(item, static_cast<int>(lane), r);
        best[lane][item] = r == 0 ? ms : std::min(best[lane][item], ms);
      }
    }
  };
  // Every lane gets its own thread, so the caller's CPU affinity (which
  // threads it starts later inherit) stays untouched.
  std::vector<std::thread> threads;
  for (unsigned lane = 0; lane < lanes; ++lane) threads.emplace_back(lane_main, lane);
  for (std::thread& t : threads) t.join();
  for (unsigned lane = 1; lane < lanes; ++lane) {
    for (std::size_t item = 0; item < items; ++item) {
      best[0][item] = std::min(best[0][item], best[lane][item]);
    }
  }
  return best[0];
}

void Result::fail(const std::string& what) {
  ++failed;
  // Print the first few failures only; a systematic bug would flood stderr.
  if (failed <= 10) std::cerr << "perfbench: check failed: " << what << "\n";
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::uint64_t fnv1a(const std::string& bytes, std::uint64_t h) {
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

namespace {

/// Renders a circuit as OpenQASM 2.0 with exact (17-digit) parameters.
std::string render_qasm(const Circuit& circuit) {
  std::string out = "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[" +
                    std::to_string(circuit.num_qubits()) + "];\n";
  const bool measures = std::any_of(
      circuit.gates().begin(), circuit.gates().end(), [](const auto& g) {
        return g.kind() == codar::ir::GateKind::kMeasure;
      });
  if (measures) out += "creg c[" + std::to_string(circuit.num_qubits()) + "];\n";
  char buf[40];
  for (const codar::ir::Gate& g : circuit.gates()) {
    if (g.kind() == codar::ir::GateKind::kMeasure) {
      const std::string q = std::to_string(g.qubit(0));
      out += "measure q[" + q + "] -> c[" + q + "];\n";
      continue;
    }
    out += codar::ir::gate_info(g.kind()).name;
    if (g.num_params() > 0) {
      out += '(';
      for (int i = 0; i < g.num_params(); ++i) {
        if (i != 0) out += ',';
        std::snprintf(buf, sizeof buf, "%.17g", g.param(i));
        out += buf;
      }
      out += ')';
    }
    out += ' ';
    for (int i = 0; i < g.num_qubits(); ++i) {
      if (i != 0) out += ',';
      out += "q[" + std::to_string(g.qubit(i)) + "]";
    }
    out += ";\n";
  }
  return out;
}

Circuit relabel(const Circuit& c, Rng& rng) {
  std::vector<Qubit> perm(static_cast<std::size_t>(c.num_qubits()));
  for (std::size_t i = 0; i < perm.size(); ++i) perm[i] = static_cast<Qubit>(i);
  for (std::size_t i = perm.size(); i > 1; --i) {
    std::swap(perm[i - 1], perm[rng.below(i)]);
  }
  Circuit out(c.num_qubits(), c.name());
  for (const codar::ir::Gate& g : c.gates()) {
    out.add(g.remapped([&](Qubit q) { return perm[static_cast<std::size_t>(q)]; }));
  }
  return out;
}

}  // namespace

std::vector<CorpusCircuit> draw_suite(std::uint64_t seed) {
  // The 71 suite slots (family, generator at the suite's size). Generators
  // that take a seed get one from the benchmark seed; every circuit is
  // then relabelled, so routing sees a different program of the same size.
  struct Slot {
    const char* family;
    std::function<Circuit(std::uint64_t)> make;
  };
  std::vector<Slot> slots;
  auto fixed = [&](const char* family, std::function<Circuit()> make) {
    slots.push_back({family, [make](std::uint64_t) { return make(); }});
  };
  for (int n : {3, 5, 8, 12, 16}) fixed("ghz", [n] { return wl::ghz(n); });
  for (int n : {4, 6, 8, 10, 13, 16}) fixed("qft", [n] { return wl::qft(n); });
  for (int n : {3, 6, 9, 12, 15}) {
    fixed("bv", [n] { return wl::bernstein_vazirani(n, (std::uint64_t{1} << n) - 1); });
  }
  for (int n : {5, 11}) {
    fixed("dj", [n] { return wl::deutsch_jozsa(n, true); });
    fixed("dj", [n] { return wl::deutsch_jozsa(n, false); });
  }
  for (int n : {2, 3, 4, 6, 8}) {
    fixed("simon", [n] { return wl::simon(n, (std::uint64_t{1} << n) - 1); });
  }
  for (int n : {4, 7, 10, 13, 16}) fixed("wstate", [n] { return wl::w_state(n); });
  for (auto [n, it] : {std::pair{3, 1}, {4, 2}, {5, 2}, {6, 3}, {8, 4}}) {
    fixed("grover", [n, it] { return wl::grover(n, it); });
  }
  for (int b : {2, 3, 4, 5, 6, 7}) fixed("cuccaro", [b] { return wl::cuccaro_adder(b); });
  for (int b : {2, 3, 4, 5, 6, 8}) fixed("draper", [b] { return wl::draper_adder(b); });
  for (auto [n, l] : {std::pair{6, 2}, {9, 2}, {12, 3}, {16, 3}}) {
    slots.push_back({"qaoa", [n, l](std::uint64_t s) { return wl::qaoa_maxcut(n, l, s); }});
  }
  for (auto [n, l] : {std::pair{5, 4}, {9, 6}, {13, 8}, {16, 8}}) {
    slots.push_back({"hea", [n, l](std::uint64_t s) {
                       return wl::hardware_efficient_ansatz(n, l, s);
                     }});
  }
  for (auto [n, s] : {std::pair{6, 8}, {10, 10}, {14, 12}, {16, 16}}) {
    fixed("ising", [n, s] { return wl::ising_trotter(n, s); });
  }
  for (auto [n, l] : {std::pair{5, 4}, {9, 6}, {13, 8}}) {
    fixed("tofchain", [n, l] { return wl::toffoli_chain(n, l); });
  }
  struct RandomSize {
    int n;
    int gates;
    double two_q;
  };
  for (const RandomSize r : {RandomSize{5, 120, 0.4}, {8, 300, 0.4}, {11, 700, 0.45},
                             {14, 1500, 0.45}, {16, 4000, 0.5}, {16, 20000, 0.5},
                             {36, 4000, 0.5}}) {
    slots.push_back({"random", [r](std::uint64_t s) {
                       return wl::random_circuit(r.n, r.gates, r.two_q, s);
                     }});
  }
  fixed("qft", [] { return wl::qft(36); });
  slots.push_back({"qaoa", [](std::uint64_t s) { return wl::qaoa_maxcut(36, 2, s); }});

  std::vector<CorpusCircuit> corpus;
  corpus.reserve(slots.size());
  for (std::size_t i = 0; i < slots.size(); ++i) {
    Rng rng(seed * 0x100000001B3ull + i);
    const Circuit base = slots[i].make(rng.next());
    const Circuit c = relabel(base, rng);
    CorpusCircuit item;
    item.family = slots[i].family;
    item.qubits = c.num_qubits();
    item.gates = c.size();
    item.name = item.family + "_" + std::to_string(item.qubits) + "_" +
                std::to_string(item.gates);
    item.qasm = render_qasm(c);
    corpus.push_back(std::move(item));
  }
  return corpus;
}

}  // namespace perfbench
