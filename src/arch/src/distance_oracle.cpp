#include "codar/arch/distance_oracle.hpp"

#include <algorithm>
#include <stdexcept>

namespace codar::arch {

namespace {

/// BFS from `source` over a CSR adjacency into `out` (pre-sized to n,
/// kInfDistance-filled by the caller). Uses a plain vector as the queue —
/// every vertex enters at most once.
void csr_bfs(std::size_t n, const std::vector<std::int32_t>& offsets,
             const std::vector<Qubit>& neighbors, Qubit source,
             std::vector<int>& out, std::vector<Qubit>& queue) {
  out.assign(n, kInfDistance);
  out[static_cast<std::size_t>(source)] = 0;
  queue.clear();
  queue.push_back(source);
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const Qubit u = queue[head];
    const int du = out[static_cast<std::size_t>(u)];
    const auto begin = static_cast<std::size_t>(offsets[u]);
    const auto end = static_cast<std::size_t>(offsets[u + 1]);
    for (std::size_t i = begin; i < end; ++i) {
      const Qubit v = neighbors[i];
      if (out[static_cast<std::size_t>(v)] == kInfDistance) {
        out[static_cast<std::size_t>(v)] = du + 1;
        queue.push_back(v);
      }
    }
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// DenseDistanceOracle

DenseDistanceOracle::DenseDistanceOracle(const CouplingGraph& graph)
    : n_(static_cast<std::size_t>(graph.num_qubits())) {
  dist_.assign(n_ * n_, kInfDistance);
  dense_data_ = dist_.data();
  dense_stride_ = n_;
  std::vector<Qubit> queue;
  queue.reserve(n_);
  for (std::size_t src = 0; src < n_; ++src) {
    int* row = dist_.data() + src * n_;
    row[src] = 0;
    queue.clear();
    queue.push_back(static_cast<Qubit>(src));
    for (std::size_t head = 0; head < queue.size(); ++head) {
      const Qubit u = queue[head];
      for (const Qubit v : graph.neighbors(u)) {
        if (row[static_cast<std::size_t>(v)] == kInfDistance) {
          row[static_cast<std::size_t>(v)] =
              row[static_cast<std::size_t>(u)] + 1;
          queue.push_back(v);
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// OnDemandDistanceOracle

OnDemandDistanceOracle::OnDemandDistanceOracle(const CouplingGraph& graph)
    : OnDemandDistanceOracle(graph, Config{}) {}

OnDemandDistanceOracle::OnDemandDistanceOracle(const CouplingGraph& graph,
                                               Config config)
    : n_(static_cast<std::size_t>(graph.num_qubits())) {
  // Snapshot the adjacency as CSR: cache-friendly BFS rows, and the oracle
  // stays valid however the graph object is moved afterwards.
  csr_offsets_.assign(n_ + 1, 0);
  for (std::size_t q = 0; q < n_; ++q) {
    csr_offsets_[q + 1] =
        csr_offsets_[q] +
        static_cast<std::int32_t>(graph.neighbors(static_cast<Qubit>(q)).size());
  }
  csr_neighbors_.reserve(static_cast<std::size_t>(csr_offsets_[n_]));
  for (std::size_t q = 0; q < n_; ++q) {
    const auto& nbs = graph.neighbors(static_cast<Qubit>(q));
    csr_neighbors_.insert(csr_neighbors_.end(), nbs.begin(), nbs.end());
  }

  const std::size_t row_bytes = std::max<std::size_t>(1, n_ * sizeof(int));
  max_rows_ = std::max<std::size_t>(1, config.row_cache_bytes / row_bytes);
  max_rows_ = std::min(max_rows_, n_);  // more rows than sources is waste
  slot_of_source_.assign(n_, -1);
  rows_.reserve(std::min<std::size_t>(max_rows_, 64));
}

void OnDemandDistanceOracle::detach(int slot) const {
  Row& r = rows_[static_cast<std::size_t>(slot)];
  if (r.prev >= 0) {
    rows_[static_cast<std::size_t>(r.prev)].next = r.next;
  } else {
    lru_head_ = r.next;
  }
  if (r.next >= 0) {
    rows_[static_cast<std::size_t>(r.next)].prev = r.prev;
  } else {
    lru_tail_ = r.prev;
  }
  r.prev = r.next = -1;
}

void OnDemandDistanceOracle::push_front(int slot) const {
  Row& r = rows_[static_cast<std::size_t>(slot)];
  r.prev = -1;
  r.next = lru_head_;
  if (lru_head_ >= 0) rows_[static_cast<std::size_t>(lru_head_)].prev = slot;
  lru_head_ = slot;
  if (lru_tail_ < 0) lru_tail_ = slot;
}

const std::vector<int>& OnDemandDistanceOracle::row_for(Qubit source) const {
  // Caller holds lock_.
  int slot = slot_of_source_[static_cast<std::size_t>(source)];
  if (slot >= 0) {
    if (lru_head_ != slot) {
      detach(slot);
      push_front(slot);
    }
    return rows_[static_cast<std::size_t>(slot)].dist;
  }
  if (rows_.size() < max_rows_) {
    slot = static_cast<int>(rows_.size());
    rows_.emplace_back();
  } else {
    slot = lru_tail_;
    detach(slot);
    slot_of_source_[static_cast<std::size_t>(
        rows_[static_cast<std::size_t>(slot)].source)] = -1;
  }
  Row& r = rows_[static_cast<std::size_t>(slot)];
  r.source = source;
  std::vector<Qubit> queue;  // scratch; rows are computed rarely
  csr_bfs(n_, csr_offsets_, csr_neighbors_, source, r.dist, queue);
  ++row_computations_;
  slot_of_source_[static_cast<std::size_t>(source)] = slot;
  push_front(slot);
  return r.dist;
}

int OnDemandDistanceOracle::distance(Qubit a, Qubit b) const {
  if (a == b) return 0;
  // Query from the smaller endpoint: distances are symmetric, so
  // normalizing doubles the row-cache hit rate.
  const Qubit src = std::min(a, b);
  const Qubit dst = std::max(a, b);
  const common::MutexLock guard(lock_);
  return row_for(src)[static_cast<std::size_t>(dst)];
}

std::size_t OnDemandDistanceOracle::footprint_bytes() const {
  return csr_offsets_.capacity() * sizeof(std::int32_t) +
         csr_neighbors_.capacity() * sizeof(Qubit) +
         slot_of_source_.capacity() * sizeof(int) +
         max_rows_ * (n_ * sizeof(int) + sizeof(Row));
}

std::size_t OnDemandDistanceOracle::rows_cached() const {
  const common::MutexLock guard(lock_);
  return rows_.size();
}

std::uint64_t OnDemandDistanceOracle::row_computations() const {
  const common::MutexLock guard(lock_);
  return row_computations_;
}

// ---------------------------------------------------------------------------

std::unique_ptr<DistanceOracle> make_distance_oracle(
    const CouplingGraph& graph, DistancePolicy policy) {
  if (policy == DistancePolicy::kAuto) {
    policy = graph.num_qubits() <= kDenseOracleMaxQubits
                 ? DistancePolicy::kDense
                 : DistancePolicy::kOnDemand;
  }
  switch (policy) {
    case DistancePolicy::kDense:
      return std::make_unique<DenseDistanceOracle>(graph);
    case DistancePolicy::kOnDemand:
      return std::make_unique<OnDemandDistanceOracle>(graph);
    case DistancePolicy::kAuto:
      break;  // resolved above
  }
  throw std::logic_error("unresolved distance policy");
}

}  // namespace codar::arch
