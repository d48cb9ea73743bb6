#include "codar/ir/dag.hpp"

#include <algorithm>

namespace codar::ir {

DependencyDag::DependencyDag(const Circuit& circuit) {
  const std::size_t n = circuit.size();
  pred_offsets_.reserve(n + 1);
  pred_offsets_.push_back(0);
  // last_on_wire[q] = index of the most recent earlier gate touching q.
  std::vector<int> last_on_wire(static_cast<std::size_t>(circuit.num_qubits()),
                                -1);
  std::vector<int> out_degree(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    const auto row_begin = static_cast<std::ptrdiff_t>(pred_.size());
    for (const Qubit q : circuit.gate(i).qubits()) {
      const int prev = last_on_wire[static_cast<std::size_t>(q)];
      const bool duplicate =
          std::find(pred_.begin() + row_begin, pred_.end(), prev) !=
          pred_.end();
      if (prev >= 0 && !duplicate) {
        pred_.push_back(prev);
        ++out_degree[static_cast<std::size_t>(prev)];
      }
      last_on_wire[static_cast<std::size_t>(q)] = static_cast<int>(i);
    }
    pred_offsets_.push_back(static_cast<int>(pred_.size()));
  }

  // Successor rows: prefix-sum the out-degrees, then fill by ascending gate
  // index so every row comes out ascending.
  succ_offsets_.resize(n + 1);
  succ_offsets_[0] = 0;
  for (std::size_t i = 0; i < n; ++i) {
    succ_offsets_[i + 1] = succ_offsets_[i] + out_degree[i];
  }
  succ_.resize(pred_.size());
  std::vector<int>& cursor = out_degree;
  std::copy(succ_offsets_.begin(), succ_offsets_.end() - 1, cursor.begin());
  for (std::size_t i = 0; i < n; ++i) {
    for (const int p : predecessors(static_cast<int>(i))) {
      succ_[static_cast<std::size_t>(cursor[static_cast<std::size_t>(p)]++)] =
          static_cast<int>(i);
    }
  }
}

std::vector<int> DependencyDag::roots() const {
  std::vector<int> out;
  for (int i = 0; i < static_cast<int>(size()); ++i) {
    if (in_degree(i) == 0) out.push_back(i);
  }
  return out;
}

}  // namespace codar::ir
