#include "codar/sabre/sabre_router.hpp"

#include <algorithm>
#include <cstdint>
#include <optional>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

#include "codar/arch/distance_oracle.hpp"
#include "codar/ir/dag.hpp"
#include "codar/ir/decompose.hpp"

namespace codar::sabre {

namespace {

using core::RouterStats;
using core::RoutingResult;
using ir::Gate;
using ir::GateKind;
using ir::Qubit;

constexpr std::size_t kMaxIterations = 50'000'000;

bool is_routed_two_qubit(const Gate& g) {
  return g.num_qubits() == 2 && g.kind() != GateKind::kBarrier;
}

/// The length of the prefix the layout search reads: up to and including
/// the horizon-th routed two-qubit gate when the circuit has more of them
/// than `horizon`, else the whole circuit (always, for horizon 0).
std::size_t horizon_end(const ir::Circuit& circuit, int horizon) {
  if (horizon <= 0) return circuit.size();
  int seen = 0;
  std::size_t end = circuit.size();
  for (std::size_t i = 0; i < circuit.size(); ++i) {
    if (!is_routed_two_qubit(circuit.gate(i))) continue;
    if (seen == horizon) return end;
    ++seen;
    end = i + 1;
  }
  return circuit.size();
}

/// Advances a stamp epoch, clearing the marks on wrap-around so a stale
/// mark can never equal the new epoch.
std::uint32_t next_epoch(std::vector<std::uint32_t>& marks,
                         std::uint32_t& epoch) {
  if (++epoch == 0) {
    std::fill(marks.begin(), marks.end(), 0u);
    epoch = 1;
  }
  return epoch;
}

/// One gate of F or E as the scorer sees it: its logical operands, its
/// distance under the current layout, and its links in the per-logical-
/// qubit incidence lists (next[k] continues the list of operand k).
struct Term {
  Qubit logical[2];
  Qubit physical[2];
  int distance;
  bool in_front;
  int next[2];
};

/// Buffers reused by every route of one pass — the initial mapping runs
/// 2 x rounds of them — so a SWAP step allocates nothing after warm-up.
struct Scratch {
  std::vector<int> unresolved;
  std::vector<int> front;
  std::vector<double> decay;
  std::vector<std::uint32_t> gate_mark;  ///< E's BFS visited stamps.
  std::uint32_t gate_epoch = 0;
  std::vector<int> queue;
  std::vector<std::uint32_t> edge_mark;  ///< Candidate dedup, by edge id.
  std::uint32_t edge_epoch = 0;
  std::vector<std::pair<Qubit, Qubit>> candidates;
  std::vector<Term> terms;  ///< F's gates, then E's.
  std::vector<int> head;    ///< Per logical qubit: first term, or -1.
};

/// Working state of one SABRE traversal. With `out == nullptr` it only
/// moves the layout (what the reverse-traversal initial mapping reads);
/// otherwise it also emits the routed circuit.
class SabreRun {
 public:
  SabreRun(const arch::Device& device, const SabreConfig& config,
           const ir::Circuit& input, const ir::DependencyDag& dag,
           layout::Layout& pi, ir::Circuit* out, Scratch& scratch)
      : graph_(device.graph),
        config_(config),
        dist_(device.graph.oracle()),
        dense_(dist_.dense_matrix()),
        stride_(dist_.dense_stride()),
        input_(input),
        dag_(dag),
        pi_(pi),
        out_(out),
        s_(scratch) {
    const std::size_t n = input.size();
    s_.unresolved.resize(n);
    s_.front.clear();
    for (std::size_t i = 0; i < n; ++i) {
      s_.unresolved[i] = dag_.in_degree(static_cast<int>(i));
      if (s_.unresolved[i] == 0) s_.front.push_back(static_cast<int>(i));
    }
    s_.decay.assign(static_cast<std::size_t>(graph_.num_qubits()), 1.0);
    if (s_.gate_mark.size() != n) {
      s_.gate_mark.assign(n, 0u);
      s_.gate_epoch = 0;
    }
    if (s_.edge_mark.size() != graph_.num_edges()) {
      s_.edge_mark.assign(graph_.num_edges(), 0u);
      s_.edge_epoch = 0;
    }
    s_.terms.clear();
    s_.head.assign(static_cast<std::size_t>(pi.num_logical()), -1);
  }

  /// Routes to completion, updating the layout (and the circuit) in place;
  /// returns the SWAP counts.
  RouterStats run() {
    std::size_t iterations = 0;
    while (!s_.front.empty()) {
      if (++iterations > kMaxIterations) {
        throw std::runtime_error(
            "SabreRouter: iteration cap exceeded (livelock?)");
      }
      if (execute_ready()) {
        since_progress_ = 0;
        continue;
      }
      if (since_progress_ >= config_.stagnation_threshold) {
        escape_swap();
      } else {
        best_swap();
      }
      ++since_progress_;
    }
    return stats_;
  }

 private:
  int distance(Qubit a, Qubit b) const {
    if (dense_ != nullptr) {
      return dense_[static_cast<std::size_t>(a) * stride_ +
                    static_cast<std::size_t>(b)];
    }
    return dist_.distance(a, b);
  }

  bool executable(const Gate& g) const {
    if (!is_routed_two_qubit(g)) return true;
    return graph_.connected(pi_.physical(g.qubit(0)),
                            pi_.physical(g.qubit(1)));
  }

  /// Retires every executable front gate; returns true when any retired.
  bool execute_ready() {
    std::vector<int>& front = s_.front;
    bool any = false;
    for (std::size_t i = 0; i < front.size();) {
      const int gi = front[i];
      const Gate& g = input_.gate(static_cast<std::size_t>(gi));
      if (!executable(g)) {
        ++i;
        continue;
      }
      if (out_ != nullptr) {
        out_->add(g.remapped([&](Qubit lq) { return pi_.physical(lq); }));
      }
      front[i] = front.back();
      front.pop_back();
      for (const int succ : dag_.successors(gi)) {
        if (--s_.unresolved[static_cast<std::size_t>(succ)] == 0) {
          front.push_back(succ);
        }
      }
      any = true;
    }
    if (any) {
      std::fill(s_.decay.begin(), s_.decay.end(), 1.0);
      decay_rounds_ = 0;
      terms_stale_ = true;
    }
    return any;
  }

  /// Candidate SWAPs: coupling edges incident to the physical positions of
  /// the front gates' qubits, in first-seen order.
  void collect_candidates() {
    s_.candidates.clear();
    const std::uint32_t epoch = next_epoch(s_.edge_mark, s_.edge_epoch);
    for (const int gi : s_.front) {
      const Gate& g = input_.gate(static_cast<std::size_t>(gi));
      for (const Qubit lq : g.qubits()) {
        const Qubit p = pi_.physical(lq);
        const std::vector<Qubit>& nbs = graph_.neighbors(p);
        const std::span<const int> ids = graph_.incident_edge_ids(p);
        for (std::size_t k = 0; k < nbs.size(); ++k) {
          std::uint32_t& mark = s_.edge_mark[static_cast<std::size_t>(ids[k])];
          if (mark == epoch) continue;
          mark = epoch;
          s_.candidates.emplace_back(std::min(p, nbs[k]), std::max(p, nbs[k]));
        }
      }
    }
  }

  void add_term(int gi, bool in_front) {
    const Gate& g = input_.gate(static_cast<std::size_t>(gi));
    const int t = static_cast<int>(s_.terms.size());
    Term term{{g.qubit(0), g.qubit(1)}, {-1, -1}, 0, in_front, {-1, -1}};
    for (int k = 0; k < 2; ++k) {
      int& head = s_.head[static_cast<std::size_t>(term.logical[k])];
      term.next[k] = head;
      head = t;
    }
    s_.terms.push_back(term);
  }

  /// Rebuilds the scored gate set: F's 2-qubit gates, then the extended
  /// set E — the next 2-qubit gates reachable from F through the DAG,
  /// capped at config.extended_set_size. Both depend only on the front, so
  /// this runs once per retirement, not once per SWAP.
  void rebuild_terms() {
    for (const Term& t : s_.terms) {
      s_.head[static_cast<std::size_t>(t.logical[0])] = -1;
      s_.head[static_cast<std::size_t>(t.logical[1])] = -1;
    }
    s_.terms.clear();
    // Everything executable was already retired, so every remaining front
    // gate is a blocked 2-qubit gate.
    for (const int gi : s_.front) {
      if (is_routed_two_qubit(input_.gate(static_cast<std::size_t>(gi)))) {
        add_term(gi, true);
      }
    }
    front_terms_ = s_.terms.size();

    const auto cap = static_cast<std::size_t>(config_.extended_set_size);
    std::size_t ext = 0;
    const std::uint32_t epoch = next_epoch(s_.gate_mark, s_.gate_epoch);
    s_.queue.assign(s_.front.begin(), s_.front.end());
    for (const int gi : s_.queue) {
      s_.gate_mark[static_cast<std::size_t>(gi)] = epoch;
    }
    for (std::size_t head = 0; head < s_.queue.size() && ext < cap; ++head) {
      for (const int succ : dag_.successors(s_.queue[head])) {
        std::uint32_t& mark = s_.gate_mark[static_cast<std::size_t>(succ)];
        if (mark == epoch) continue;
        mark = epoch;
        s_.queue.push_back(succ);
        if (is_routed_two_qubit(input_.gate(static_cast<std::size_t>(succ)))) {
          add_term(succ, false);
          if (++ext >= cap) break;
        }
      }
    }
    terms_stale_ = false;
  }

  /// The integer distance change of every F/E term on logical qubit `lq`
  /// under SWAP (sa, sb), skipping terms that also act on `skip` (already
  /// counted through that qubit's list).
  void reprice(Qubit lq, Qubit skip, Qubit sa, Qubit sb,
               std::int64_t& front_sum, std::int64_t& ext_sum) const {
    if (lq < 0) return;
    auto moved = [&](Qubit p) {
      if (p == sa) return sb;
      if (p == sb) return sa;
      return p;
    };
    for (int t = s_.head[static_cast<std::size_t>(lq)]; t >= 0;) {
      const Term& term = s_.terms[static_cast<std::size_t>(t)];
      const int side = term.logical[0] == lq ? 0 : 1;
      if (skip < 0 || (term.logical[0] != skip && term.logical[1] != skip)) {
        const int delta =
            distance(moved(term.physical[0]), moved(term.physical[1])) -
            term.distance;
        (term.in_front ? front_sum : ext_sum) += delta;
      }
      t = term.next[side];
    }
  }

  /// Scores every candidate as decay · (mean F distance + W · mean E
  /// distance) after the SWAP and applies the strictly best (first-seen
  /// on ties). Distances are integers, so the sums are exact in int64 and
  /// `double(sum) / size` equals the sequential double sum bit for bit;
  /// each candidate re-prices only the terms on its two logical qubits.
  void best_swap() {
    collect_candidates();
    CODAR_ENSURES(!s_.candidates.empty());
    if (terms_stale_) rebuild_terms();
    CODAR_ENSURES(front_terms_ > 0);

    std::int64_t front_base = 0;
    std::int64_t ext_base = 0;
    for (Term& t : s_.terms) {
      t.physical[0] = pi_.physical(t.logical[0]);
      t.physical[1] = pi_.physical(t.logical[1]);
      t.distance = distance(t.physical[0], t.physical[1]);
      (t.in_front ? front_base : ext_base) += t.distance;
    }
    const auto front_size = static_cast<double>(front_terms_);
    const std::size_t ext_terms = s_.terms.size() - front_terms_;
    const auto ext_size = static_cast<double>(ext_terms);

    double best_score = 0.0;
    std::pair<Qubit, Qubit> best{-1, -1};
    for (const auto& [sa, sb] : s_.candidates) {
      std::int64_t front_sum = front_base;
      std::int64_t ext_sum = ext_base;
      const Qubit la = pi_.logical(sa);
      const Qubit lb = pi_.logical(sb);
      reprice(la, -1, sa, sb, front_sum, ext_sum);
      reprice(lb, la, sa, sb, front_sum, ext_sum);
      const double front_cost = static_cast<double>(front_sum) / front_size;
      const double ext_cost =
          ext_terms == 0 ? 0.0 : static_cast<double>(ext_sum) / ext_size;
      const double decay =
          std::max(s_.decay[static_cast<std::size_t>(sa)],
                   s_.decay[static_cast<std::size_t>(sb)]);
      const double score =
          decay * (front_cost + config_.extended_weight * ext_cost);
      if (best.first < 0 || score < best_score) {
        best_score = score;
        best = {sa, sb};
      }
    }
    apply_swap(best.first, best.second);
  }

  /// Anti-livelock: move the oldest front gate one step along a shortest
  /// path (same guarantee as CODAR's escape).
  void escape_swap() {
    const int gi = *std::min_element(s_.front.begin(), s_.front.end());
    const Gate& g = input_.gate(static_cast<std::size_t>(gi));
    CODAR_ENSURES(g.num_qubits() == 2);
    const Qubit pa = pi_.physical(g.qubit(0));
    const Qubit pb = pi_.physical(g.qubit(1));
    Qubit step = -1;
    for (const Qubit nb : graph_.neighbors(pa)) {
      if (step < 0 || distance(nb, pb) < distance(step, pb)) step = nb;
    }
    CODAR_ENSURES(step >= 0);
    apply_swap(pa, step);
    ++stats_.escape_swaps;
  }

  void apply_swap(Qubit a, Qubit b) {
    if (out_ != nullptr) out_->swap(a, b);
    pi_.swap_physical(a, b);
    s_.decay[static_cast<std::size_t>(a)] += config_.decay_delta;
    s_.decay[static_cast<std::size_t>(b)] += config_.decay_delta;
    ++stats_.swaps_inserted;
    if (++decay_rounds_ >= config_.decay_reset_interval) {
      std::fill(s_.decay.begin(), s_.decay.end(), 1.0);
      decay_rounds_ = 0;
    }
  }

  const arch::CouplingGraph& graph_;
  const SabreConfig& config_;
  const arch::DistanceOracle& dist_;  ///< Cached distance backend.
  const int* dense_;                  ///< Flat V x V matrix, when dense.
  std::size_t stride_;
  const ir::Circuit& input_;
  const ir::DependencyDag& dag_;
  layout::Layout& pi_;
  ir::Circuit* out_;
  Scratch& s_;
  bool terms_stale_ = true;  ///< F changed since the terms were built.
  std::size_t front_terms_ = 0;
  int decay_rounds_ = 0;
  int since_progress_ = 0;
  RouterStats stats_;
};

}  // namespace

SabreRouter::SabreRouter(const arch::Device& device, SabreConfig config)
    : device_(device), config_(config) {
  CODAR_EXPECTS(device.graph.is_fully_connected());
  CODAR_EXPECTS(config.extended_set_size >= 0);
  CODAR_EXPECTS(config.stagnation_threshold >= 1);
}

RoutingResult SabreRouter::route(const ir::Circuit& circuit,
                                 const layout::Layout& initial) const {
  CODAR_EXPECTS(ir::is_two_qubit_lowered(circuit));
  CODAR_EXPECTS(circuit.num_qubits() <= device_.graph.num_qubits());
  CODAR_EXPECTS(initial.num_logical() == circuit.num_qubits());
  CODAR_EXPECTS(initial.num_physical() == device_.graph.num_qubits());
  const ir::DependencyDag dag(circuit);
  Scratch scratch;
  layout::Layout pi = initial;
  ir::Circuit out(device_.graph.num_qubits(), circuit.name() + "_sabre");
  RouterStats stats =
      SabreRun(device_, config_, circuit, dag, pi, &out, scratch).run();
  stats.barriers = circuit.barrier_count();
  stats.gates_routed = circuit.size() - stats.barriers;
  return RoutingResult{std::move(out), initial, std::move(pi), stats};
}

RoutingResult SabreRouter::route(const ir::Circuit& circuit) const {
  return route(circuit, layout::Layout(circuit.num_qubits(),
                                       device_.graph.num_qubits()));
}

layout::Layout SabreRouter::initial_mapping(const ir::Circuit& circuit,
                                            int rounds, std::uint64_t seed,
                                            int horizon) const {
  CODAR_EXPECTS(rounds >= 1);
  CODAR_EXPECTS(horizon >= 0);
  CODAR_EXPECTS(ir::is_two_qubit_lowered(circuit));
  CODAR_EXPECTS(circuit.num_qubits() <= device_.graph.num_qubits());
  layout::Layout layout = layout::random_layout(
      circuit.num_qubits(), device_.graph.num_qubits(), seed);
  // The search returns the layout for the circuit's start, which gates
  // far past the horizon barely move: every traversal reads the prefix.
  std::optional<ir::Circuit> prefix;
  if (const std::size_t end = horizon_end(circuit, horizon);
      end < circuit.size()) {
    const std::span<const Gate> head = circuit.gates().first(end);
    prefix.emplace(circuit.num_qubits(), circuit.name(),
                   std::vector<Gate>(head.begin(), head.end()));
  }
  const ir::Circuit& searched = prefix ? *prefix : circuit;
  const ir::Circuit reversed = searched.reversed();
  const ir::DependencyDag forward_dag(searched);
  const ir::DependencyDag reverse_dag(reversed);
  Scratch scratch;
  for (int r = 0; r < rounds; ++r) {
    SabreRun(device_, config_, searched, forward_dag, layout, nullptr,
             scratch)
        .run();
    SabreRun(device_, config_, reversed, reverse_dag, layout, nullptr, scratch)
        .run();
  }
  return layout;
}

}  // namespace codar::sabre
