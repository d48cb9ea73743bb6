#include "codar/core/codar_router.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "codar/arch/distance_oracle.hpp"
#include "codar/core/front.hpp"
#include "codar/core/heuristic.hpp"
#include "codar/core/qubit_lock.hpp"
#include "codar/ir/decompose.hpp"

namespace codar::core {

namespace {

using ir::Gate;
using ir::GateKind;
using ir::Qubit;

/// Hard iteration cap: the stagnation escape guarantees progress, so this
/// only trips on an internal bug; better a loud error than a silent hang.
constexpr std::size_t kMaxIterations = 50'000'000;

/// A two-qubit gate the coupling graph constrains (barriers are fences).
bool is_routed_two_qubit(const Gate& g) {
  return g.num_qubits() == 2 && g.kind() != GateKind::kBarrier;
}

/// One two-qubit CF gate under the current π, threaded onto the list of
/// each physical qubit it occupies: next[k] continues phys[k]'s list.
struct CfEntry {
  int gate;
  Qubit phys[2];
  int next[2];
};

/// A candidate SWAP and the id of its coupler (the priority-cache key).
struct Candidate {
  SwapCandidate swap;
  int edge;
};

/// Working state of one route() invocation.
///
/// This is the event-driven rewrite of the original loop: the CF set lives
/// in an incrementally-maintained CommutativeFront (no per-iteration
/// rescan), time advances through the lock bank's expiry heap, and
/// swap_step runs allocation-free on reused scratch buffers with candidate
/// priorities cached per coupler and re-priced only where a CF gate
/// appeared, left or moved. The routing decisions — launch order, SWAP
/// choices, timing — are identical to the original rescan loop (preserved
/// as the differential-test oracle in tests/support/rescan_router.hpp).
class RoutingRun {
 public:
  RoutingRun(const arch::Device& device, const CodarConfig& config,
             const ir::Circuit& input, const layout::Layout& initial)
      : device_(device),
        config_(config),
        dist_(device.graph.oracle()),
        dense_(dist_.dense_matrix()),
        stride_(dist_.dense_stride()),
        cost_(config.swap_cost.get()),
        gates_(input.gates().begin(), input.gates().end()),
        barriers_(input.barrier_count()),
        front_(gates_, config.front_window, config.commutativity_aware),
        pi_(initial),
        initial_(initial),
        locks_(device.graph.num_qubits()),
        out_(device.graph.num_qubits(), input.name() + "_codar"),
        entry_head_(static_cast<std::size_t>(device.graph.num_qubits()), -1),
        qubit_version_(static_cast<std::size_t>(device.graph.num_qubits()), 1),
        edge_seen_(device.graph.num_edges(), 0),
        edge_priority_(device.graph.num_edges()),
        edge_priced_(device.graph.num_edges(), 0) {}

  RoutingResult run() {
    std::size_t iterations = 0;
    Duration last_counted = -1;
    while (front_.live_count() > 0) {
      if (++iterations > kMaxIterations) {
        throw std::runtime_error(
            "CodarRouter: iteration cap exceeded (livelock?)");
      }
      // A "cycle" is a distinct visited timestamp, not a loop iteration:
      // launch/swap/forced-swap rounds at the same time count once.
      if (now_ != last_counted) {
        ++stats_.cycles_simulated;
        last_counted = now_;
      }
      const bool launched = launch_step();
      const bool inserted = swap_step();
      if (launched || inserted) {
        advance_after_progress();
        continue;
      }
      const Duration next = locks_.next_expiry_after(now_);
      if (next > now_) {
        now_ = next;  // wait for a busy qubit to free up
      } else {
        // Deadlock (paper §IV-D): every qubit is idle yet nothing can
        // launch and no SWAP has positive priority.
        force_swap();
      }
    }
    RoutingResult result{std::move(out_), std::move(initial_), std::move(pi_),
                         stats_};
    for (Qubit q = 0; q < device_.graph.num_qubits(); ++q) {
      result.stats.router_makespan =
          std::max(result.stats.router_makespan, locks_.t_end(q));
    }
    result.stats.barriers = barriers_;
    result.stats.gates_routed = gates_.size() - barriers_;
    return result;
  }

 private:
  void retire(int gate_index) {
    front_.retire(gate_index);
    consecutive_forced_ = 0;
    last_forced_ = SwapCandidate{};
  }

  // -- Step 1 + 2: launch every executable CF gate (to fixpoint) ------------

  bool launch_step() {
    bool launched_any = false;
    for (;;) {
      bool launched = false;
      // Snapshot the front: gates that become front mid-pass (unblocked by
      // a retirement) wait for the next pass, exactly as the rescan loop
      // only saw them on its next recompute.
      pass_scratch_.assign(front_.front().begin(), front_.front().end());
      for (const int gi : pass_scratch_) {
        const Gate& g = gates_[static_cast<std::size_t>(gi)];
        phys_scratch_.clear();
        for (const Qubit q : g.qubits()) {
          phys_scratch_.push_back(pi_.physical(q));
        }
        if (!locks_.all_free(phys_scratch_, now_)) continue;
        if (is_routed_two_qubit(g) &&
            !coupled(phys_scratch_[0], phys_scratch_[1])) {
          continue;
        }
        out_.add(g.remapped([&](Qubit lq) { return pi_.physical(lq); }));
        // The device resolves calibration overrides against the *physical*
        // operands; with an empty calibration this is the kind default.
        locks_.lock(phys_scratch_, now_, device_.duration(g, phys_scratch_));
        retire(gi);
        launched = true;
      }
      if (!launched) break;
      launched_any = true;
    }
    return launched_any;
  }

  // -- Step 3: SWAP insertion ------------------------------------------------

  /// True when a two-qubit gate may act on (a, b): one read of the dense
  /// matrix (distance 1 is an edge), or the graph's adjacency list on the
  /// on-demand backend.
  bool coupled(Qubit a, Qubit b) const {
    if (dense_ != nullptr) {
      return dense_[static_cast<std::size_t>(a) * stride_ +
                    static_cast<std::size_t>(b)] == 1;
    }
    return device_.graph.connected(a, b);
  }

  /// Marks physical qubit q as changed at the current version: every
  /// cached priority of a coupler on q priced before now is stale.
  void stamp(Qubit q) {
    qubit_version_[static_cast<std::size_t>(q)] = version_;
  }

  void stamp(const CfEntry& e) {
    stamp(e.phys[0]);
    stamp(e.phys[1]);
  }

  /// The one front pass of a step: rebuilds the CF two-qubit entries under
  /// the current π (program order) and blocked_scratch_ (the entries whose
  /// endpoints are not coupled), and merges them on gate index against the
  /// previous pass to stamp every qubit where an entry appeared, left or
  /// moved — a retirement, an admission, or a SWAP outside the greedy loop
  /// (forced, escape, or one the loop did not get to refresh).
  void scan_front() {
    std::swap(entries_, prev_entries_);
    entries_.clear();
    blocked_scratch_.clear();
    for (const CfEntry& e : prev_entries_) {
      entry_head_[static_cast<std::size_t>(e.phys[0])] = -1;
      entry_head_[static_cast<std::size_t>(e.phys[1])] = -1;
    }
    ++version_;
    std::size_t old = 0;
    for (const int gi : front_.front()) {
      const Gate& g = gates_[static_cast<std::size_t>(gi)];
      if (!is_routed_two_qubit(g)) continue;
      CfEntry e{gi,
                {pi_.physical(g.qubit(0)), pi_.physical(g.qubit(1))},
                {-1, -1}};
      while (old < prev_entries_.size() && prev_entries_[old].gate < gi) {
        stamp(prev_entries_[old++]);  // left the CF set
      }
      if (old < prev_entries_.size() && prev_entries_[old].gate == gi) {
        const CfEntry& before = prev_entries_[old++];
        if (before.phys[0] != e.phys[0] || before.phys[1] != e.phys[1]) {
          stamp(before);  // moved
          stamp(e);
        }
      } else {
        stamp(e);  // appeared
      }
      const auto i = static_cast<int>(entries_.size());
      for (int k = 0; k < 2; ++k) {  // thread onto both qubits' lists
        int& head = entry_head_[static_cast<std::size_t>(e.phys[k])];
        e.next[k] = head;
        head = i;
      }
      entries_.push_back(e);
      if (!coupled(e.phys[0], e.phys[1])) blocked_scratch_.push_back(i);
    }
    while (old < prev_entries_.size()) stamp(prev_entries_[old++]);
  }

  /// ⟨H_basic, H_fine − base⟩ of candidate `c`. Both terms skip every gate
  /// the SWAP does not move, so the price depends only on the entries on
  /// c's two qubits: it is reused from the per-coupler cache while neither
  /// qubit has been stamped since it was priced, and otherwise computed
  /// over just those entries. (The sums are exact: on a connected device
  /// no partial sum comes near saturation, so their order is immaterial.)
  const SwapPriority& priority(const Candidate& c) {
    const auto edge = static_cast<std::size_t>(c.edge);
    const std::uint64_t priced = edge_priced_[edge];
    if (qubit_version_[static_cast<std::size_t>(c.swap.a)] > priced ||
        qubit_version_[static_cast<std::size_t>(c.swap.b)] > priced) {
      endpoints_scratch_.clear();
      for (const Qubit q : {c.swap.a, c.swap.b}) {
        for (int i = entry_head_[static_cast<std::size_t>(q)]; i >= 0;) {
          const CfEntry& e = entries_[static_cast<std::size_t>(i)];
          const int side = e.phys[0] == q ? 0 : 1;
          // The entry on both qubits is on both lists; count it once.
          if (q == c.swap.a || e.phys[1 - side] != c.swap.a) {
            endpoints_scratch_.emplace_back(e.phys[0], e.phys[1]);
          }
          i = e.next[side];
        }
      }
      edge_priority_[edge] =
          swap_priority_delta(endpoints_scratch_, dist_, device_.graph, c.swap,
                              config_.fine_priority);
      edge_priced_[edge] = version_;
    }
    return edge_priority_[edge];
  }

  /// Candidate SWAPs into cand_scratch_: edges adjacent to the physical
  /// qubits of blocked CF gates; with context awareness only lock-free
  /// edges qualify. First-occurrence order, deduplicated by a stamped
  /// table keyed on the graph's compact edge ids — O(E) scratch, so the
  /// table stays small even on 65536-qubit devices.
  void build_candidates(bool filter_locks) {
    cand_scratch_.clear();
    ++edge_stamp_;
    for (const int bi : blocked_scratch_) {
      const CfEntry& blocked = entries_[static_cast<std::size_t>(bi)];
      for (const Qubit p : blocked.phys) {
        if (filter_locks && !locks_.is_free(p, now_)) continue;
        const auto& nbs = device_.graph.neighbors(p);
        const std::span<const int> edge_ids = device_.graph.incident_edge_ids(p);
        for (std::size_t k = 0; k < nbs.size(); ++k) {
          const Qubit nb = nbs[k];
          if (filter_locks && !locks_.is_free(nb, now_)) continue;
          const auto edge_id = static_cast<std::size_t>(edge_ids[k]);
          if (edge_seen_[edge_id] == edge_stamp_) continue;
          edge_seen_[edge_id] = edge_stamp_;
          cand_scratch_.push_back(Candidate{
              SwapCandidate{std::min(p, nb), std::max(p, nb)}, edge_ids[k]});
        }
      }
    }
  }

  void insert_swap(SwapCandidate cand) {
    const Duration start = std::max(
        {now_, locks_.t_end(cand.a), locks_.t_end(cand.b)});
    out_.swap(cand.a, cand.b);
    const Qubit pair[] = {cand.a, cand.b};
    locks_.lock(pair, start, device_.duration(GateKind::kSwap, pair));
    pi_.swap_physical(cand.a, cand.b);
    ++stats_.swaps_inserted;
  }

  /// Mixed fidelity-aware score of candidate `i` (swap_cost set):
  /// alpha * H_basic + the model's per-edge bonus. Deterministic — every
  /// term is a pure function of the candidate edge and its cached basic.
  double score_of(std::size_t i) const {
    return config_.alpha * static_cast<double>(cached_priority(i).basic) +
           bonus_scratch_[i];
  }

  /// The cached priority of candidate `i`, current after every refresh.
  const SwapPriority& cached_priority(std::size_t i) const {
    return edge_priority_[static_cast<std::size_t>(cand_scratch_[i].edge)];
  }

  /// Index of the best candidate by cached priority (first strict maximum
  /// in candidate order, as the rescan loop's linear argmax). Under
  /// swap_cost scoring the score is compared first; ⟨H_basic, H_fine⟩
  /// breaks exact score ties, so zero-bonus models reproduce the paper
  /// ordering exactly.
  std::size_t best_candidate() const {
    std::size_t best = 0;
    if (cost_ == nullptr) {
      for (std::size_t i = 1; i < cand_scratch_.size(); ++i) {
        if (cached_priority(i) > cached_priority(best)) best = i;
      }
      return best;
    }
    double best_score = score_of(0);
    for (std::size_t i = 1; i < cand_scratch_.size(); ++i) {
      const double score = score_of(i);
      if (score > best_score ||
          (score == best_score && cached_priority(i) > cached_priority(best))) {
        best = i;
        best_score = score;
      }
    }
    return best;
  }

  /// Applies the chosen SWAP to the entries and re-prices the candidates
  /// whose neighborhood it touched. The entries on the two swapped qubits
  /// trade places, so their lists trade heads; both the old and new
  /// positions of every moved entry are stamped, which stales exactly the
  /// cached priorities that read one of those entries. Priorities are
  /// ⟨H_basic, H_fine − base⟩; the dropped base term is shared by every
  /// candidate under one mapping, so comparisons (and the basic > 0 gate)
  /// are unchanged.
  void refresh_after_swap(SwapCandidate chosen) {
    ++version_;
    for (const Qubit q : {chosen.a, chosen.b}) {
      const Qubit to = q == chosen.a ? chosen.b : chosen.a;
      for (int i = entry_head_[static_cast<std::size_t>(q)]; i >= 0;) {
        CfEntry& e = entries_[static_cast<std::size_t>(i)];
        const int side = e.phys[0] == q ? 0 : 1;
        const Qubit other = e.phys[1 - side];
        stamp(other);
        i = e.next[side];
        if (other != to) {
          e.phys[side] = to;
        } else if (q == chosen.b) {
          // On both lists: left alone by the first walk, so this side
          // test still holds, and transposed whole by the second.
          std::swap(e.phys[0], e.phys[1]);
        }
      }
    }
    std::swap(entry_head_[static_cast<std::size_t>(chosen.a)],
              entry_head_[static_cast<std::size_t>(chosen.b)]);
    stamp(chosen.a);
    stamp(chosen.b);
    for (const Candidate& c : cand_scratch_) priority(c);
  }

  /// Drops candidates matching `drop` from cand_scratch_ (and their
  /// bonuses), preserving relative order.
  template <typename Pred>
  void prune_candidates(Pred drop) {
    std::size_t kept = 0;
    for (std::size_t i = 0; i < cand_scratch_.size(); ++i) {
      if (drop(cand_scratch_[i].swap)) continue;
      cand_scratch_[kept] = cand_scratch_[i];
      if (cost_ != nullptr) bonus_scratch_[kept] = bonus_scratch_[i];
      ++kept;
    }
    cand_scratch_.resize(kept);
    if (cost_ != nullptr) bonus_scratch_.resize(kept);
  }

  bool swap_step() {
    scan_front();
    if (blocked_scratch_.empty()) return false;
    build_candidates(config_.context_aware);
    for (const Candidate& c : cand_scratch_) priority(c);
    if (cost_ != nullptr) {
      // Bonuses are per-edge constants (state-free by contract), so one
      // fill per pricing round survives every refresh_after_swap.
      bonus_scratch_.clear();
      for (const Candidate& c : cand_scratch_) {
        bonus_scratch_.push_back(cost_->bonus(c.swap.a, c.swap.b));
      }
    }
    bool inserted_any = false;
    while (!cand_scratch_.empty()) {
      const std::size_t best = best_candidate();
      if (cached_priority(best).basic <= 0) break;
      const SwapCandidate chosen = cand_scratch_[best].swap;
      insert_swap(chosen);
      inserted_any = true;
      if (config_.context_aware) {
        // The chosen SWAP locked its endpoints; overlapping edges are no
        // longer lock-free this cycle.
        prune_candidates([&](const SwapCandidate& c) {
          return c.a == chosen.a || c.a == chosen.b || c.b == chosen.a ||
                 c.b == chosen.b;
        });
      } else {
        prune_candidates(
            [&](const SwapCandidate& c) { return c == chosen; });
      }
      if (!cand_scratch_.empty()) refresh_after_swap(chosen);
    }
    return inserted_any;
  }

  // -- Deadlock resolution ----------------------------------------------------

  void force_swap() {
    scan_front();
    // live_count > 0 and nothing launched with all qubits free implies at
    // least one CF two-qubit gate is blocked by connectivity.
    CODAR_ENSURES(!blocked_scratch_.empty());
    ++consecutive_forced_;
    if (consecutive_forced_ > config_.stagnation_threshold) {
      escape_swap(entries_[static_cast<std::size_t>(blocked_scratch_.front())]);
      return;
    }
    build_candidates(config_.context_aware);
    CODAR_ENSURES(!cand_scratch_.empty());
    // Anti-oscillation: never immediately undo the previous forced SWAP
    // (forcing an H_basic = 0 SWAP and its inverse would ping-pong).
    if (cand_scratch_.size() > 1) {
      std::erase_if(cand_scratch_,
                    [&](const Candidate& c) { return c.swap == last_forced_; });
    }
    std::size_t best = 0;
    SwapPriority best_priority;
    double best_score = 0.0;
    for (std::size_t i = 0; i < cand_scratch_.size(); ++i) {
      const SwapCandidate& cand = cand_scratch_[i].swap;
      const SwapPriority p = priority(cand_scratch_[i]);
      const double score =
          cost_ == nullptr
              ? 0.0
              : config_.alpha * static_cast<double>(p.basic) +
                    cost_->bonus(cand.a, cand.b);
      const bool improves =
          cost_ == nullptr
              ? p > best_priority
              : score > best_score ||
                    (score == best_score && p > best_priority);
      if (i == 0 || improves) {
        best = i;
        best_priority = p;
        best_score = score;
      }
    }
    last_forced_ = cand_scratch_[best].swap;
    insert_swap(last_forced_);
    ++stats_.forced_swaps;
  }

  /// Stagnation escape: move the oldest blocked gate one step along a
  /// shortest path — monotone progress, so the router always terminates.
  void escape_swap(const CfEntry& blocked) {
    const Qubit pa = blocked.phys[0];
    const Qubit pb = blocked.phys[1];
    Qubit step = -1;
    for (const Qubit nb : device_.graph.neighbors(pa)) {
      if (step < 0 || dist_.distance(nb, pb) < dist_.distance(step, pb)) {
        step = nb;
      }
    }
    CODAR_ENSURES(step >= 0);
    insert_swap(SwapCandidate{std::min(pa, step), std::max(pa, step)});
    last_forced_ = SwapCandidate{};
    ++stats_.forced_swaps;
    ++stats_.escape_swaps;
  }

  // -- Time control -----------------------------------------------------------

  void advance_after_progress() {
    const Duration next = locks_.next_expiry_after(now_);
    if (next > now_) now_ = next;
    // next == now_ happens when only zero-duration barriers launched; the
    // main loop simply runs another iteration at the same time.
  }

  const arch::Device& device_;
  const CodarConfig& config_;
  const arch::DistanceOracle& dist_;  ///< Cached distance backend.
  const int* dense_;                  ///< Flat V x V matrix, when dense.
  std::size_t stride_;
  const SwapCostModel* cost_;  ///< Fidelity-aware scoring, or null (paper).

  std::vector<Gate> gates_;
  std::size_t barriers_;  ///< Barrier fences in the input (stat reporting).
  CommutativeFront front_;
  layout::Layout pi_;
  layout::Layout initial_;
  QubitLockBank locks_;
  Duration now_ = 0;
  ir::Circuit out_;
  RouterStats stats_;

  // Scratch buffers reused across the steps of this route: the hot loop
  // allocates nothing once each has grown to its high-water mark.
  std::vector<int> pass_scratch_;     ///< Front snapshot per launch pass.
  std::vector<Qubit> phys_scratch_;   ///< Physical operands of one gate.
  std::vector<CfEntry> entries_;       ///< CF 2q gates under π.
  std::vector<CfEntry> prev_entries_;  ///< The previous pass's.
  std::vector<int> entry_head_;  ///< Per physical qubit: first entry.
  /// Per physical qubit: the version at which an entry on it last
  /// appeared, left or moved. Starts above every edge's priced version.
  std::vector<std::uint64_t> qubit_version_;
  std::uint64_t version_ = 1;
  std::vector<int> blocked_scratch_;  ///< Uncoupled entries_ indices.
  std::vector<Candidate> cand_scratch_;  ///< Candidate SWAP edges.
  std::vector<double> bonus_scratch_;  ///< Per-edge cost bonuses.
  std::vector<GateEndpoints> endpoints_scratch_;  ///< One pricing's.
  std::vector<std::uint32_t> edge_seen_;  ///< Edge-id dedup stamps.
  std::uint32_t edge_stamp_ = 0;
  /// Per edge id: the cached priority and the version it was priced at.
  std::vector<SwapPriority> edge_priority_;
  std::vector<std::uint64_t> edge_priced_;

  SwapCandidate last_forced_{};
  int consecutive_forced_ = 0;
};

}  // namespace

CodarRouter::CodarRouter(const arch::Device& device, CodarConfig config)
    : device_(device), config_(config) {
  CODAR_EXPECTS(device.graph.is_fully_connected());
  CODAR_EXPECTS(config.stagnation_threshold >= 1);
  CODAR_EXPECTS(std::isfinite(config.alpha));
  if (!config.duration_aware) {
    // Duration-blind ablation: the router's clock pretends every gate
    // takes one cycle (SWAP 3), heterogeneous timing included — so the
    // owned device copy drops its duration model entirely.
    device_.durations = arch::DurationMap::uniform();
    device_.calibration.clear_durations();
  }
}

RoutingResult CodarRouter::route(const ir::Circuit& circuit,
                                 const layout::Layout& initial) const {
  CODAR_EXPECTS(ir::is_two_qubit_lowered(circuit));
  CODAR_EXPECTS(circuit.num_qubits() <= device_.graph.num_qubits());
  CODAR_EXPECTS(initial.num_logical() == circuit.num_qubits());
  CODAR_EXPECTS(initial.num_physical() == device_.graph.num_qubits());
  RoutingRun run(device_, config_, circuit, initial);
  return run.run();
}

RoutingResult CodarRouter::route(const ir::Circuit& circuit) const {
  return route(circuit, layout::Layout(circuit.num_qubits(),
                                       device_.graph.num_qubits()));
}

}  // namespace codar::core
