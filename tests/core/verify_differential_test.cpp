// Differential test of the verifier's matcher: core::verify_routing looks a
// routed gate up on its first operand's wire only, and must return the same
// verdict and message as the whole-sequence scan kept in
// tests/support/reference_verify.hpp. Seeded random circuits are routed by
// CODAR and SABRE on four devices, then each route is checked as routed and
// under seeded mutations: a dropped gate, a duplicated gate, two adjacent
// non-SWAP gates exchanged, one operand of a two-qubit gate moved to a
// third qubit, and a dropped SWAP.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "codar/arch/device.hpp"
#include "codar/core/codar_router.hpp"
#include "codar/core/verify.hpp"
#include "codar/sabre/sabre_router.hpp"
#include "codar/workloads/generators.hpp"
#include "support/reference_verify.hpp"

namespace codar::core {
namespace {

using ir::Circuit;
using ir::Gate;
using ir::GateKind;
using ir::Qubit;

enum class Mutation {
  kDropGate,
  kDuplicateGate,
  kSwapAdjacent,
  kRetarget,
  kDropSwap,
};

constexpr Mutation kMutations[] = {
    Mutation::kDropGate, Mutation::kDuplicateGate, Mutation::kSwapAdjacent,
    Mutation::kRetarget, Mutation::kDropSwap};

bool is_swap(const Gate& g) { return g.kind() == GateKind::kSwap; }

/// `routed` with one mutation of kind `m` at a site drawn from `rng`, or
/// nothing when the circuit has no such site.
std::optional<Circuit> mutate(const Circuit& routed, Mutation m,
                              const arch::CouplingGraph& graph,
                              std::mt19937_64& rng) {
  std::vector<Gate> gates(routed.gates().begin(), routed.gates().end());
  std::vector<std::size_t> sites;
  for (std::size_t i = 0; i < gates.size(); ++i) {
    const Gate& g = gates[i];
    const bool site =
        m == Mutation::kDropSwap       ? is_swap(g)
        : m == Mutation::kSwapAdjacent ? i + 1 < gates.size() && !is_swap(g) &&
                                             !is_swap(gates[i + 1])
        : m == Mutation::kRetarget     ? g.num_qubits() == 2 && !is_swap(g)
                                       : !is_swap(g);
    if (site) sites.push_back(i);
  }
  if (sites.empty()) return std::nullopt;
  const std::size_t i = sites[rng() % sites.size()];
  switch (m) {
    case Mutation::kDropGate:
    case Mutation::kDropSwap:
      gates.erase(gates.begin() + static_cast<std::ptrdiff_t>(i));
      break;
    case Mutation::kDuplicateGate:
      gates.insert(gates.begin() + static_cast<std::ptrdiff_t>(i), gates[i]);
      break;
    case Mutation::kSwapAdjacent:
      std::swap(gates[i], gates[i + 1]);
      break;
    case Mutation::kRetarget: {
      // Move one operand to a neighbour of the other, so the coupling
      // check passes and the matcher decides.
      const Gate g = gates[i];
      const int k = static_cast<int>(rng() % 2);
      const Qubit moved = g.qubit(k);
      const Qubit kept = g.qubit(1 - k);
      std::vector<Qubit> thirds;
      for (const Qubit nb : graph.neighbors(kept)) {
        if (nb != moved) thirds.push_back(nb);
      }
      if (thirds.empty()) return std::nullopt;
      const Qubit third = thirds[rng() % thirds.size()];
      gates[i] = g.remapped([&](Qubit q) { return q == moved ? third : q; });
      break;
    }
  }
  return Circuit(routed.num_qubits(), routed.name(), std::move(gates));
}

struct VerifierCase {
  const char* name;
  arch::Device (*device)();
};

class VerifyDifferential : public ::testing::TestWithParam<VerifierCase> {};

TEST_P(VerifyDifferential, MatchesWholeSequenceScanOnRoutedAndMutatedCircuits) {
  const arch::Device device = GetParam().device();
  const arch::CouplingGraph& graph = device.graph;
  const int n = std::min(graph.num_qubits(), 12);
  std::mt19937_64 rng(0x5eed0000u +
                      static_cast<unsigned>(graph.num_qubits()));
  int accepted_mutants = 0;
  int rejected[std::size(kMutations)] = {};

  for (const std::uint64_t seed : {1, 2, 3, 4, 5, 6}) {
    const Circuit original = workloads::random_circuit(n, 90, 0.5, seed);
    const RoutingResult routes[] = {
        CodarRouter(device).route(original),
        sabre::SabreRouter(device).route(original)};
    for (const RoutingResult& routed : routes) {
      SCOPED_TRACE("seed " + std::to_string(seed) + " " +
                   routed.circuit.name());
      const VerifyOutcome as_routed = verify_routing(original, routed, graph);
      EXPECT_TRUE(as_routed.valid) << as_routed.reason;
      const VerifyOutcome reference =
          codar::testing::reference_verify_routing(original, routed, graph);
      EXPECT_EQ(as_routed.valid, reference.valid);
      EXPECT_EQ(as_routed.reason, reference.reason);

      for (std::size_t m = 0; m < std::size(kMutations); ++m) {
        for (int draw = 0; draw < 4; ++draw) {
          std::optional<Circuit> mutant =
              mutate(routed.circuit, kMutations[m], graph, rng);
          if (!mutant) continue;
          RoutingResult candidate = routed;
          candidate.circuit = std::move(*mutant);
          const VerifyOutcome got = verify_routing(original, candidate, graph);
          const VerifyOutcome want =
              codar::testing::reference_verify_routing(original, candidate,
                                                       graph);
          EXPECT_EQ(got.valid, want.valid) << "mutation " << m;
          EXPECT_EQ(got.reason, want.reason) << "mutation " << m;
          if (want.valid) {
            ++accepted_mutants;
          } else {
            ++rejected[m];
          }
        }
      }
    }
  }
  // Not vacuous: every kind of mutation is caught somewhere, and some
  // (exchanging commuting neighbours) are rightly accepted.
  for (std::size_t m = 0; m < std::size(kMutations); ++m) {
    EXPECT_GT(rejected[m], 0) << "mutation " << m;
  }
  EXPECT_GT(accepted_mutants, 0);
}

INSTANTIATE_TEST_SUITE_P(
    Devices, VerifyDifferential,
    ::testing::Values(
        VerifierCase{"linear6", [] { return arch::linear(6); }},
        VerifierCase{"ring8", [] { return arch::ring(8); }},
        VerifierCase{"grid3x3", [] { return arch::grid(3, 3); }},
        VerifierCase{"tokyo", [] { return arch::ibm_q20_tokyo(); }}),
    [](const ::testing::TestParamInfo<VerifierCase>& pinfo) {
      return std::string(pinfo.param.name);
    });

}  // namespace
}  // namespace codar::core
