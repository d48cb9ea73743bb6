#pragma once

// The pre-incremental CODAR routing loop, preserved verbatim as a
// differential-test oracle. This is the original RoutingRun from
// src/core/src/codar_router.cpp before the event-driven rewrite: the CF set
// is recomputed by a full front-window rescan after every retirement and
// swap_step reallocates its candidate/endpoint vectors each call. Its
// locks are the original linear scan (ScanLockBank below), not the
// production QubitLockBank and its expiry heap, so a shortcut in the heap
// shows up as a difference. Slow by design — its only job is to define the
// reference routing behavior the incremental router must reproduce
// gate-for-gate (same output circuit, same swaps_inserted, same
// router_makespan).
//
// Two later features of the production router are ported in their plain
// form: locks take Device::duration() of the physical operands (per-edge
// and per-qubit calibration), and the codar-fid scoring hook ranks
// candidates by alpha * H_basic + swap_cost->bonus(a, b) with
// ⟨H_basic, H_fine⟩ breaking exact ties, in swap_step and force_swap.
//
// Deliberately NOT kept in sync with stats-level fixes in the production
// router (cycles_simulated here still counts loop iterations, gates_routed
// still counts barriers): differential tests compare the routed circuit,
// swap count, and makespan, which the rewrite must not change.

#include <algorithm>
#include <span>
#include <stdexcept>
#include <vector>

#include "codar/arch/device.hpp"
#include "codar/core/codar_router.hpp"
#include "codar/core/commutativity.hpp"
#include "codar/core/heuristic.hpp"
#include "codar/core/routing_result.hpp"
#include "codar/ir/decompose.hpp"
#include "codar/layout/layout.hpp"

namespace codar::testing {

/// Per-qubit lock times t_end with the original O(Q) expiry scan.
class ScanLockBank {
 public:
  explicit ScanLockBank(int num_qubits)
      : t_end_(static_cast<std::size_t>(num_qubits), 0) {}

  arch::Duration t_end(ir::Qubit q) const {
    return t_end_[static_cast<std::size_t>(q)];
  }
  bool is_free(ir::Qubit q, arch::Duration now) const {
    return t_end(q) <= now;
  }
  bool all_free(std::span<const ir::Qubit> qubits, arch::Duration now) const {
    return std::all_of(qubits.begin(), qubits.end(),
                       [&](ir::Qubit q) { return is_free(q, now); });
  }
  void lock(std::span<const ir::Qubit> qubits, arch::Duration now,
            arch::Duration duration) {
    for (const ir::Qubit q : qubits) {
      t_end_[static_cast<std::size_t>(q)] = now + duration;
    }
  }
  /// Earliest lock expiry strictly after `now`, or `now` when none.
  arch::Duration next_expiry_after(arch::Duration now) const {
    arch::Duration next = now;
    for (const arch::Duration t : t_end_) {
      if (t > now && (next == now || t < next)) next = t;
    }
    return next;
  }

 private:
  std::vector<arch::Duration> t_end_;
};

/// Working state of one oracle route() invocation (the old RoutingRun).
class RescanRoutingRun {
 public:
  RescanRoutingRun(const arch::Device& device, const core::CodarConfig& config,
                   const ir::Circuit& input, const layout::Layout& initial)
      : device_(device),
        config_(config),
        gates_(input.gates().begin(), input.gates().end()),
        alive_(gates_.size(), true),
        live_count_(gates_.size()),
        pi_(initial),
        initial_(initial),
        locks_(device.graph.num_qubits()),
        out_(device.graph.num_qubits(), input.name() + "_codar") {
    pending_.resize(gates_.size());
    for (std::size_t i = 0; i < pending_.size(); ++i)
      pending_[i] = static_cast<int>(i);
  }

  core::RoutingResult run() {
    std::size_t iterations = 0;
    while (live_count_ > 0) {
      if (++iterations > kMaxIterations) {
        throw std::runtime_error(
            "RescanRouter: iteration cap exceeded (livelock?)");
      }
      ++stats_.cycles_simulated;
      const bool launched = launch_step();
      const bool inserted = swap_step();
      if (launched || inserted) {
        advance_after_progress();
        continue;
      }
      const arch::Duration next = locks_.next_expiry_after(now_);
      if (next > now_) {
        now_ = next;  // wait for a busy qubit to free up
      } else {
        force_swap();
      }
    }
    core::RoutingResult result{std::move(out_), std::move(initial_),
                               std::move(pi_), stats_};
    for (ir::Qubit q = 0; q < device_.graph.num_qubits(); ++q) {
      result.stats.router_makespan =
          std::max(result.stats.router_makespan, locks_.t_end(q));
    }
    result.stats.gates_routed = gates_.size();
    return result;
  }

 private:
  static constexpr std::size_t kMaxIterations = 50'000'000;

  void compact_pending() {
    if (dead_in_pending_ * 2 <= pending_.size()) return;
    std::erase_if(pending_, [&](int gi) {
      return !alive_[static_cast<std::size_t>(gi)];
    });
    dead_in_pending_ = 0;
  }

  /// Recomputes the CF gate list (gate indices, program order) over the
  /// first `front_window` alive pending gates — the full rescan.
  void compute_cf() {
    compact_pending();
    cf_.clear();
    const std::size_t window =
        config_.front_window <= 0
            ? pending_.size()
            : static_cast<std::size_t>(config_.front_window);
    wire_scratch_.resize(static_cast<std::size_t>(device_.graph.num_qubits()));
    for (auto& wire : wire_scratch_) wire.clear();
    std::size_t scanned = 0;
    for (const int gi : pending_) {
      if (!alive_[static_cast<std::size_t>(gi)]) continue;
      if (scanned >= window) break;
      ++scanned;
      const ir::Gate& g = gates_[static_cast<std::size_t>(gi)];
      bool is_front = true;
      for (const ir::Qubit q : g.qubits()) {
        for (const int earlier : wire_scratch_[static_cast<std::size_t>(q)]) {
          const ir::Gate& h = gates_[static_cast<std::size_t>(earlier)];
          if (!config_.commutativity_aware || !core::gates_commute(h, g)) {
            is_front = false;
            break;
          }
        }
        if (!is_front) break;
      }
      if (is_front) cf_.push_back(gi);
      for (const ir::Qubit q : g.qubits()) {
        wire_scratch_[static_cast<std::size_t>(q)].push_back(gi);
      }
    }
    cf_dirty_ = false;
  }

  void retire(int gate_index) {
    alive_[static_cast<std::size_t>(gate_index)] = false;
    ++dead_in_pending_;
    --live_count_;
    cf_dirty_ = true;
    consecutive_forced_ = 0;
    last_forced_ = core::SwapCandidate{};
  }

  bool launch_step() {
    bool launched_any = false;
    for (;;) {
      if (cf_dirty_) compute_cf();
      bool launched = false;
      for (const int gi : cf_) {
        if (!alive_[static_cast<std::size_t>(gi)]) continue;
        const ir::Gate& g = gates_[static_cast<std::size_t>(gi)];
        const ir::Gate phys =
            g.remapped([&](ir::Qubit lq) { return pi_.physical(lq); });
        if (!locks_.all_free(phys.qubits(), now_)) continue;
        if (phys.num_qubits() == 2 && phys.kind() != ir::GateKind::kBarrier &&
            !device_.graph.connected(phys.qubit(0), phys.qubit(1))) {
          continue;
        }
        out_.add(phys);
        locks_.lock(phys.qubits(), now_, device_.duration(g, phys.qubits()));
        retire(gi);
        launched = true;
      }
      if (!launched) break;
      launched_any = true;
    }
    return launched_any;
  }

  std::vector<core::GateEndpoints> cf_two_qubit_endpoints() const {
    std::vector<core::GateEndpoints> endpoints;
    for (const int gi : cf_) {
      if (!alive_[static_cast<std::size_t>(gi)]) continue;
      const ir::Gate& g = gates_[static_cast<std::size_t>(gi)];
      if (g.num_qubits() != 2 || g.kind() == ir::GateKind::kBarrier) continue;
      endpoints.emplace_back(pi_.physical(g.qubit(0)),
                             pi_.physical(g.qubit(1)));
    }
    return endpoints;
  }

  std::vector<int> blocked_gates() const {
    std::vector<int> blocked;
    for (const int gi : cf_) {
      if (!alive_[static_cast<std::size_t>(gi)]) continue;
      const ir::Gate& g = gates_[static_cast<std::size_t>(gi)];
      if (g.num_qubits() != 2 || g.kind() == ir::GateKind::kBarrier) continue;
      if (!device_.graph.connected(pi_.physical(g.qubit(0)),
                                   pi_.physical(g.qubit(1)))) {
        blocked.push_back(gi);
      }
    }
    return blocked;
  }

  std::vector<core::SwapCandidate> build_candidates(
      const std::vector<int>& blocked, bool filter_locks) const {
    std::vector<core::SwapCandidate> candidates;
    auto add_edge = [&](ir::Qubit p, ir::Qubit nb) {
      core::SwapCandidate cand{std::min(p, nb), std::max(p, nb)};
      if (std::find(candidates.begin(), candidates.end(), cand) ==
          candidates.end()) {
        candidates.push_back(cand);
      }
    };
    for (const int gi : blocked) {
      const ir::Gate& g = gates_[static_cast<std::size_t>(gi)];
      for (int i = 0; i < 2; ++i) {
        const ir::Qubit p = pi_.physical(g.qubit(i));
        if (filter_locks && !locks_.is_free(p, now_)) continue;
        for (const ir::Qubit nb : device_.graph.neighbors(p)) {
          if (filter_locks && !locks_.is_free(nb, now_)) continue;
          add_edge(p, nb);
        }
      }
    }
    return candidates;
  }

  void insert_swap(core::SwapCandidate cand) {
    const arch::Duration start =
        std::max({now_, locks_.t_end(cand.a), locks_.t_end(cand.b)});
    out_.swap(cand.a, cand.b);
    const ir::Qubit pair[] = {cand.a, cand.b};
    locks_.lock(pair, start, device_.duration(ir::GateKind::kSwap, pair));
    pi_.swap_physical(cand.a, cand.b);
    ++stats_.swaps_inserted;
  }

  /// The first best candidate: by ⟨H_basic, H_fine⟩, or with a swap_cost
  /// model by alpha * H_basic + bonus, that priority breaking exact ties.
  const core::SwapCandidate* best_of(
      const std::vector<core::SwapCandidate>& candidates,
      core::SwapPriority& best_priority) const {
    const std::vector<core::GateEndpoints> endpoints = cf_two_qubit_endpoints();
    const core::SwapCandidate* best = nullptr;
    double best_score = 0.0;
    for (const core::SwapCandidate& cand : candidates) {
      const core::SwapPriority p = core::swap_priority(
          endpoints, device_.graph, cand, config_.fine_priority);
      double score = 0.0;
      bool improves = p > best_priority;
      if (config_.swap_cost != nullptr) {
        score = config_.alpha * static_cast<double>(p.basic) +
                config_.swap_cost->bonus(cand.a, cand.b);
        improves = score > best_score ||
                   (score == best_score && p > best_priority);
      }
      if (best == nullptr || improves) {
        best = &cand;
        best_priority = p;
        best_score = score;
      }
    }
    return best;
  }

  bool swap_step() {
    if (cf_dirty_) compute_cf();
    const std::vector<int> blocked = blocked_gates();
    if (blocked.empty()) return false;
    std::vector<core::SwapCandidate> candidates =
        build_candidates(blocked, config_.context_aware);
    bool inserted_any = false;
    while (!candidates.empty()) {
      core::SwapPriority best_priority;
      const core::SwapCandidate* best = best_of(candidates, best_priority);
      if (best == nullptr || best_priority.basic <= 0) break;
      const core::SwapCandidate chosen = *best;
      insert_swap(chosen);
      inserted_any = true;
      if (config_.context_aware) {
        std::erase_if(candidates, [&](const core::SwapCandidate& c) {
          return c.a == chosen.a || c.a == chosen.b || c.b == chosen.a ||
                 c.b == chosen.b;
        });
      } else {
        std::erase_if(candidates, [&](const core::SwapCandidate& c) {
          return c == chosen;
        });
      }
    }
    return inserted_any;
  }

  void force_swap() {
    if (cf_dirty_) compute_cf();
    const std::vector<int> blocked = blocked_gates();
    CODAR_ENSURES(!blocked.empty());
    ++consecutive_forced_;
    if (consecutive_forced_ > config_.stagnation_threshold) {
      escape_swap(blocked.front());
      return;
    }
    std::vector<core::SwapCandidate> candidates =
        build_candidates(blocked, config_.context_aware);
    CODAR_ENSURES(!candidates.empty());
    if (candidates.size() > 1) {
      std::erase_if(candidates, [&](const core::SwapCandidate& c) {
        return c == last_forced_;
      });
    }
    core::SwapPriority best_priority;
    const core::SwapCandidate* best = best_of(candidates, best_priority);
    last_forced_ = *best;
    insert_swap(*best);
    ++stats_.forced_swaps;
  }

  void escape_swap(int gate_index) {
    const ir::Gate& g = gates_[static_cast<std::size_t>(gate_index)];
    const ir::Qubit pa = pi_.physical(g.qubit(0));
    const ir::Qubit pb = pi_.physical(g.qubit(1));
    ir::Qubit step = -1;
    for (const ir::Qubit nb : device_.graph.neighbors(pa)) {
      if (step < 0 ||
          device_.graph.distance(nb, pb) < device_.graph.distance(step, pb)) {
        step = nb;
      }
    }
    CODAR_ENSURES(step >= 0);
    insert_swap(core::SwapCandidate{std::min(pa, step), std::max(pa, step)});
    last_forced_ = core::SwapCandidate{};
    ++stats_.forced_swaps;
    ++stats_.escape_swaps;
  }

  void advance_after_progress() {
    const arch::Duration next = locks_.next_expiry_after(now_);
    if (next > now_) now_ = next;
  }

  const arch::Device& device_;
  const core::CodarConfig& config_;

  std::vector<ir::Gate> gates_;
  std::vector<int> pending_;
  std::vector<bool> alive_;
  std::size_t dead_in_pending_ = 0;
  std::size_t live_count_ = 0;
  layout::Layout pi_;
  layout::Layout initial_;
  ScanLockBank locks_;
  arch::Duration now_ = 0;
  ir::Circuit out_;
  core::RouterStats stats_;

  std::vector<int> cf_;
  bool cf_dirty_ = true;
  std::vector<std::vector<int>> wire_scratch_;

  core::SwapCandidate last_forced_{};
  int consecutive_forced_ = 0;
};

/// Routes `circuit` with the oracle loop, mirroring CodarRouter::route
/// (same contracts; the duration-blind ablation clocks every gate with the
/// uniform profile and no duration calibration).
inline core::RoutingResult route_with_rescan(const arch::Device& device,
                                             const core::CodarConfig& config,
                                             const ir::Circuit& circuit,
                                             const layout::Layout& initial) {
  CODAR_EXPECTS(device.graph.is_fully_connected());
  CODAR_EXPECTS(ir::is_two_qubit_lowered(circuit));
  arch::Device clocked = device;
  if (!config.duration_aware) {
    clocked.durations = arch::DurationMap::uniform();
    clocked.calibration.clear_durations();
  }
  RescanRoutingRun run(clocked, config, circuit, initial);
  return run.run();
}

inline core::RoutingResult route_with_rescan(const arch::Device& device,
                                             const core::CodarConfig& config,
                                             const ir::Circuit& circuit) {
  return route_with_rescan(
      device, config, circuit,
      layout::Layout(circuit.num_qubits(), device.graph.num_qubits()));
}

}  // namespace codar::testing
