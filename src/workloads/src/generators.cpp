#include "codar/workloads/generators.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <string>
#include <vector>

#include "codar/common/rng.hpp"

namespace codar::workloads {

namespace {

using std::numbers::pi;

/// Controlled-RY via the standard two-CX decomposition.
void cry(Circuit& c, double theta, Qubit control, Qubit target) {
  c.ry(target, theta / 2.0);
  c.cx(control, target);
  c.ry(target, -theta / 2.0);
  c.cx(control, target);
}

/// Multi-controlled X via the CCX cascade; needs controls.size() - 2
/// ancillas starting at `ancilla_base` (untouched when <= 2 controls).
void mcx(Circuit& c, const std::vector<Qubit>& controls, Qubit target,
         Qubit ancilla_base) {
  const std::size_t k = controls.size();
  CODAR_EXPECTS(k >= 1);
  if (k == 1) {
    c.cx(controls[0], target);
    return;
  }
  if (k == 2) {
    c.ccx(controls[0], controls[1], target);
    return;
  }
  // Compute ancilla chain, hit the target, then uncompute.
  std::vector<Qubit> anc;
  c.ccx(controls[0], controls[1], ancilla_base);
  anc.push_back(ancilla_base);
  for (std::size_t i = 2; i + 1 < k; ++i) {
    const Qubit next = ancilla_base + static_cast<Qubit>(anc.size());
    c.ccx(controls[i], anc.back(), next);
    anc.push_back(next);
  }
  c.ccx(controls[k - 1], anc.back(), target);
  for (std::size_t i = anc.size(); i-- > 1;) {
    c.ccx(controls[i + 1], anc[i - 1], anc[i]);
  }
  c.ccx(controls[0], controls[1], ancilla_base);
}

}  // namespace

Circuit qft(int n, bool with_final_swaps) {
  CODAR_EXPECTS(n >= 1);
  Circuit c(n, "qft_" + std::to_string(n));
  for (Qubit i = 0; i < n; ++i) {
    c.h(i);
    for (Qubit j = i + 1; j < n; ++j) {
      c.cu1(j, i, pi / std::pow(2.0, j - i));
    }
  }
  if (with_final_swaps) {
    for (Qubit i = 0; i < n / 2; ++i) c.swap(i, n - 1 - i);
  }
  return c;
}

Circuit inverse_qft(int n, bool with_initial_swaps) {
  CODAR_EXPECTS(n >= 1);
  Circuit c(n, "iqft_" + std::to_string(n));
  if (with_initial_swaps) {
    for (Qubit i = 0; i < n / 2; ++i) c.swap(i, n - 1 - i);
  }
  for (Qubit i = static_cast<Qubit>(n) - 1; i >= 0; --i) {
    for (Qubit j = static_cast<Qubit>(n) - 1; j > i; --j) {
      c.cu1(j, i, -pi / std::pow(2.0, j - i));
    }
    c.h(i);
  }
  return c;
}

Circuit ghz(int n) {
  CODAR_EXPECTS(n >= 2);
  Circuit c(n, "ghz_" + std::to_string(n));
  c.h(0);
  for (Qubit i = 0; i + 1 < n; ++i) c.cx(i, i + 1);
  for (Qubit i = 0; i < n; ++i) c.measure(i);
  return c;
}

Circuit w_state(int n) {
  CODAR_EXPECTS(n >= 2);
  Circuit c(n, "wstate_" + std::to_string(n));
  c.x(0);
  for (Qubit i = 0; i + 1 < n; ++i) {
    // Split amplitude so each |1> position ends up with weight 1/n.
    const double theta =
        2.0 * std::acos(std::sqrt(1.0 / static_cast<double>(n - i)));
    cry(c, theta, i, i + 1);
    c.cx(i + 1, i);
  }
  return c;
}

Circuit bernstein_vazirani(int n, std::uint64_t secret) {
  CODAR_EXPECTS(n >= 1 && n < 63);
  Circuit c(n + 1, "bv_" + std::to_string(n));
  const Qubit anc = static_cast<Qubit>(n);
  c.x(anc);
  c.h(anc);
  for (Qubit i = 0; i < n; ++i) c.h(i);
  for (Qubit i = 0; i < n; ++i) {
    if ((secret >> i) & 1U) c.cx(i, anc);
  }
  for (Qubit i = 0; i < n; ++i) c.h(i);
  for (Qubit i = 0; i < n; ++i) c.measure(i);
  return c;
}

Circuit deutsch_jozsa(int n, bool balanced) {
  CODAR_EXPECTS(n >= 1);
  Circuit c(n + 1, std::string("dj_") + (balanced ? "b_" : "c_") +
                       std::to_string(n));
  const Qubit anc = static_cast<Qubit>(n);
  c.x(anc);
  c.h(anc);
  for (Qubit i = 0; i < n; ++i) c.h(i);
  if (balanced) {
    // f(x) = parity of all inputs — a maximally balanced oracle.
    for (Qubit i = 0; i < n; ++i) c.cx(i, anc);
  }
  for (Qubit i = 0; i < n; ++i) c.h(i);
  for (Qubit i = 0; i < n; ++i) c.measure(i);
  return c;
}

Circuit simon(int n, std::uint64_t secret) {
  CODAR_EXPECTS(n >= 2 && n < 32);
  CODAR_EXPECTS(secret != 0 && secret < (std::uint64_t{1} << n));
  Circuit c(2 * n, "simon_" + std::to_string(n));
  for (Qubit i = 0; i < n; ++i) c.h(i);
  // Oracle: f(x) = x XOR (x_j ? s : 0) where j = lowest set bit of s;
  // satisfies f(x) = f(x XOR s), the Simon promise.
  for (Qubit i = 0; i < n; ++i) c.cx(i, static_cast<Qubit>(n) + i);
  Qubit j = 0;
  while (((secret >> j) & 1U) == 0) ++j;
  for (Qubit k = 0; k < n; ++k) {
    if ((secret >> k) & 1U) c.cx(j, static_cast<Qubit>(n) + k);
  }
  for (Qubit i = 0; i < n; ++i) c.h(i);
  for (Qubit i = 0; i < n; ++i) c.measure(i);
  return c;
}

Circuit grover(int n, int iterations) {
  CODAR_EXPECTS(n >= 2);
  CODAR_EXPECTS(iterations >= 1);
  const int ancillas = std::max(0, n - 3);
  Circuit c(n + ancillas, "grover_" + std::to_string(n));
  const Qubit ancilla_base = static_cast<Qubit>(n);
  std::vector<Qubit> all_but_last;
  for (Qubit i = 0; i + 1 < n; ++i) all_but_last.push_back(i);
  const Qubit last = static_cast<Qubit>(n) - 1;

  // Multi-controlled Z across the full register, via H-MCX-H on the last
  // qubit.
  auto mcz_full = [&]() {
    c.h(last);
    mcx(c, all_but_last, last, ancilla_base);
    c.h(last);
  };

  for (Qubit i = 0; i < n; ++i) c.h(i);
  for (int it = 0; it < iterations; ++it) {
    // Oracle: phase-flip |1...1>.
    mcz_full();
    // Diffusion.
    for (Qubit i = 0; i < n; ++i) c.h(i);
    for (Qubit i = 0; i < n; ++i) c.x(i);
    mcz_full();
    for (Qubit i = 0; i < n; ++i) c.x(i);
    for (Qubit i = 0; i < n; ++i) c.h(i);
  }
  for (Qubit i = 0; i < n; ++i) c.measure(i);
  return c;
}

Circuit cuccaro_adder(int bits) {
  CODAR_EXPECTS(bits >= 1);
  // Register layout: c_in = 0, a_i = 1 + 2i, b_i = 2 + 2i, c_out = 2b + 1.
  const int n = 2 * bits + 2;
  Circuit c(n, "cuccaro_" + std::to_string(bits));
  auto a = [&](int i) { return static_cast<Qubit>(1 + 2 * i); };
  auto b = [&](int i) { return static_cast<Qubit>(2 + 2 * i); };
  const Qubit cin = 0;
  const Qubit cout = static_cast<Qubit>(n - 1);

  auto maj = [&](Qubit x, Qubit y, Qubit z) {
    c.cx(z, y);
    c.cx(z, x);
    c.ccx(x, y, z);
  };
  auto uma = [&](Qubit x, Qubit y, Qubit z) {
    c.ccx(x, y, z);
    c.cx(z, x);
    c.cx(x, y);
  };

  maj(cin, b(0), a(0));
  for (int i = 1; i < bits; ++i) maj(a(i - 1), b(i), a(i));
  c.cx(a(bits - 1), cout);
  for (int i = bits - 1; i >= 1; --i) uma(a(i - 1), b(i), a(i));
  uma(cin, b(0), a(0));
  for (int i = 0; i < bits; ++i) c.measure(b(i));
  c.measure(cout);
  return c;
}

Circuit draper_adder(int bits) {
  CODAR_EXPECTS(bits >= 1);
  // Registers: a = qubits [0, bits), b = qubits [bits, 2*bits).
  const int n = 2 * bits;
  Circuit c(n, "draper_" + std::to_string(bits));
  // QFT over b in descending qubit order, so Fourier position p holds
  // b_{bits-1-p} and the encoded fraction is b / 2^bits (most-significant
  // bit first); with that convention the phase block below adds a.
  auto b_at = [&](int p) {
    return static_cast<Qubit>(bits + (bits - 1 - p));
  };
  for (int p = 0; p < bits; ++p) {
    c.h(b_at(p));
    for (int q = p + 1; q < bits; ++q) {
      c.cu1(b_at(q), b_at(p), pi / std::pow(2.0, q - p));
    }
  }
  // Controlled phase rotations from a onto b (all mutually commuting):
  // target b_j accumulates pi/2^(j-k) from every control a_k with k <= j;
  // lower-order pairs would only contribute multiples of 2*pi.
  for (Qubit j = 0; j < bits; ++j) {
    for (Qubit k = 0; k <= j; ++k) {
      c.cu1(k, static_cast<Qubit>(bits) + j, pi / std::pow(2.0, j - k));
    }
  }
  // Inverse QFT over b, mirroring the forward pass.
  for (int p = bits - 1; p >= 0; --p) {
    for (int q = bits - 1; q > p; --q) {
      c.cu1(b_at(q), b_at(p), -pi / std::pow(2.0, q - p));
    }
    c.h(b_at(p));
  }
  return c;
}

Circuit toffoli_chain(int n, int layers) {
  CODAR_EXPECTS(n >= 3);
  CODAR_EXPECTS(layers >= 1);
  Circuit c(n, "tofchain_" + std::to_string(n) + "_" +
                   std::to_string(layers));
  for (int layer = 0; layer < layers; ++layer) {
    for (Qubit i = 0; i + 2 < n; ++i) {
      c.ccx(i, i + 1, i + 2);
    }
  }
  return c;
}

Circuit random_circuit(int n, int num_gates, double two_qubit_fraction,
                       std::uint64_t seed) {
  CODAR_EXPECTS(n >= 2);
  CODAR_EXPECTS(num_gates >= 0);
  CODAR_EXPECTS(two_qubit_fraction >= 0.0 && two_qubit_fraction <= 1.0);
  Circuit c(n, "random_" + std::to_string(n) + "_" +
                   std::to_string(num_gates));
  Rng rng(seed);
  for (int g = 0; g < num_gates; ++g) {
    if (rng.uniform() < two_qubit_fraction) {
      const Qubit q1 = static_cast<Qubit>(rng.index(
          static_cast<std::size_t>(n)));
      Qubit q2 = q1;
      while (q2 == q1) {
        q2 = static_cast<Qubit>(rng.index(static_cast<std::size_t>(n)));
      }
      c.cx(q1, q2);
    } else {
      const Qubit q = static_cast<Qubit>(rng.index(
          static_cast<std::size_t>(n)));
      switch (rng.uniform_int(0, 5)) {
        case 0: c.h(q); break;
        case 1: c.x(q); break;
        case 2: c.t(q); break;
        case 3: c.tdg(q); break;
        case 4: c.s(q); break;
        default: c.rz(q, rng.uniform(0.0, 2.0 * pi)); break;
      }
    }
  }
  return c;
}

Circuit qaoa_maxcut(int n, int layers, std::uint64_t seed) {
  CODAR_EXPECTS(n >= 3);
  CODAR_EXPECTS(layers >= 1);
  Circuit c(n, "qaoa_" + std::to_string(n) + "_" + std::to_string(layers));
  Rng rng(seed);
  // Random graph, edge probability 3/n (sparse, connected-ish); always
  // include the ring so the instance is nontrivial.
  std::vector<std::pair<Qubit, Qubit>> graph_edges;
  for (Qubit i = 0; i < n; ++i) {
    graph_edges.emplace_back(i, (i + 1) % n);
  }
  for (Qubit i = 0; i < n; ++i) {
    for (Qubit j = i + 2; j < n; ++j) {
      if ((i == 0 && j == n - 1)) continue;  // already in the ring
      if (rng.uniform() < 3.0 / n) graph_edges.emplace_back(i, j);
    }
  }
  for (Qubit i = 0; i < n; ++i) c.h(i);
  for (int layer = 0; layer < layers; ++layer) {
    const double gamma = rng.uniform(0.1, pi);
    const double beta = rng.uniform(0.1, pi / 2.0);
    for (const auto& [u, v] : graph_edges) c.rzz(u, v, gamma);
    for (Qubit i = 0; i < n; ++i) c.rx(i, 2.0 * beta);
  }
  for (Qubit i = 0; i < n; ++i) c.measure(i);
  return c;
}

Circuit hardware_efficient_ansatz(int n, int layers, std::uint64_t seed) {
  CODAR_EXPECTS(n >= 2);
  CODAR_EXPECTS(layers >= 1);
  Circuit c(n, "ansatz_" + std::to_string(n) + "_" + std::to_string(layers));
  Rng rng(seed);
  for (int layer = 0; layer < layers; ++layer) {
    for (Qubit i = 0; i < n; ++i) c.ry(i, rng.uniform(0.0, 2.0 * pi));
    for (Qubit i = 0; i + 1 < n; ++i) c.cz(i, i + 1);
  }
  for (Qubit i = 0; i < n; ++i) c.ry(i, rng.uniform(0.0, 2.0 * pi));
  return c;
}

Circuit ising_trotter(int n, int steps) {
  CODAR_EXPECTS(n >= 2);
  CODAR_EXPECTS(steps >= 1);
  Circuit c(n, "ising_" + std::to_string(n) + "_" + std::to_string(steps));
  const double dt = 0.1;
  for (int s = 0; s < steps; ++s) {
    for (Qubit i = 0; i + 1 < n; ++i) c.rzz(i, i + 1, 2.0 * dt);
    for (Qubit i = 0; i < n; ++i) c.rx(i, 2.0 * dt);
  }
  return c;
}

Circuit qpe(int counting, double theta) {
  CODAR_EXPECTS(counting >= 1 && counting <= 24);
  // Qubits [0, counting) hold the phase estimate; qubit `counting` holds
  // the U1 eigenstate |1>.
  Circuit c(counting + 1, "qpe_" + std::to_string(counting));
  const Qubit target = static_cast<Qubit>(counting);
  c.x(target);
  for (Qubit i = 0; i < counting; ++i) c.h(i);
  // Counting qubit i picks up phase 2*pi*theta*2^(counting-1-i) — all
  // mutually commuting CU1s. With the descending-order inverse QFT below
  // (the convention that decodes the fraction directly, as in
  // draper_adder), bit i of the estimate lands on qubit i.
  for (Qubit i = 0; i < counting; ++i) {
    c.cu1(i, target,
          2.0 * pi * theta * std::pow(2.0, counting - 1 - i));
  }
  auto at = [&](int p) { return static_cast<Qubit>(counting - 1 - p); };
  for (int p = counting - 1; p >= 0; --p) {
    for (int q = counting - 1; q > p; --q) {
      c.cu1(at(q), at(p), -pi / std::pow(2.0, q - p));
    }
    c.h(at(p));
  }
  for (Qubit i = 0; i < counting; ++i) c.measure(i);
  return c;
}

}  // namespace codar::workloads
