#pragma once

// Incrementally-maintained commutative front (paper §IV-B, Definition 1).
//
// The CF set over a pending gate sequence is: gate g is front iff it lies
// within the first `window` alive gates AND every earlier alive gate h
// sharing a wire with g commutes with it (with commutativity awareness off,
// iff no earlier alive gate shares a wire — the plain DAG front). The
// original router recomputed this from scratch with a full window rescan
// after every retirement. This structure maintains the identical set under
// a nearest-blocker invariant:
//
//  * every gate operand is a *slot* in a doubly-linked list over the alive
//    gates on its wire, in program order;
//  * each slot of a windowed gate is either free or *parked* on the
//    nearest earlier alive slot on its wire whose gate blocks it, found by
//    walking the wire list backward; every gate passed on the way commutes
//    with the slot's gate;
//  * a windowed gate is front iff none of its slots is parked.
//
// Every slot heads an intrusive list of the slots parked on it. retire(g)
// resumes each walk parked on g from g's own predecessor on that wire:
// retirement only removes gates, so the gates already passed still commute,
// and no (blocker, blockee) pair is ever tested twice on a wire. Admitting
// the gate past the window boundary starts its walks at its wire
// predecessors, all of which are in the window because the window is an
// alive prefix. Equivalence with the rescan definition is locked in by
// randomized differential tests against commutative_front() and the
// preserved oracle router.

#include <span>
#include <vector>

#include "codar/ir/gate.hpp"

namespace codar::core {

/// The CF set of a fixed gate sequence under incremental retirement.
class CommutativeFront {
 public:
  /// Builds the front over `gates` (all initially alive, program order).
  /// The span must outlive this object. `window <= 0` means unbounded;
  /// `use_commutativity = false` degenerates to the plain DAG front layer.
  CommutativeFront(std::span<const ir::Gate> gates, int window,
                   bool use_commutativity);

  /// Current front: alive gate indices in ascending program order. The span
  /// is invalidated by retire().
  std::span<const int> front() const { return front_; }

  /// Number of alive (un-retired) gates.
  std::size_t live_count() const { return live_count_; }

  bool alive(int gate_index) const {
    return alive_[static_cast<std::size_t>(gate_index)] != 0;
  }

  /// Retires a gate currently in the front, resuming the walks of the slots
  /// parked on it and admitting gates past the window boundary.
  void retire(int gate_index);

 private:
  /// One operand of one gate.
  struct Slot {
    int gate = -1;         ///< Owning gate.
    int prev = -1;         ///< Previous alive slot on this wire.
    int next = -1;         ///< Next alive slot on this wire.
    int parked = -1;       ///< First slot parked on this one.
    int next_parked = -1;  ///< Next slot parked on the same blocker.
  };

  /// True when earlier gate h blocks later gate g (they share a wire).
  bool blocks(int h, int g) const;

  /// Walks backward from wire slot `from` to the nearest slot whose gate
  /// blocks slot `s`'s gate and parks `s` there. False when none is left.
  bool park(int s, int from);

  /// Admits the gate at the window boundary, parking each of its slots.
  void admit_next();

  void front_insert(int gate_index);
  void front_erase(int gate_index);

  std::span<const ir::Gate> gates_;
  std::size_t window_cap_;  ///< Max gates in the window.
  bool use_commutativity_;

  std::vector<char> alive_;
  std::size_t live_count_ = 0;
  std::size_t window_size_ = 0;
  /// First gate beyond the window. Only front gates retire, so every gate
  /// from here on is alive and the window boundary is a plain index.
  std::size_t next_admit_ = 0;

  std::vector<int> slot_offset_;   ///< gate -> its first slot.
  std::vector<Slot> slots_;        ///< one entry per (gate, operand).
  std::vector<int> parked_slots_;  ///< gate -> number of its parked slots.

  std::vector<int> front_;  ///< Sorted windowed gates with no parked slot.
};

}  // namespace codar::core
