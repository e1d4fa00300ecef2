// Parallel connected components by sampled union-find (Afforest, Sutton
// et al., IPDPS 2018). Two passes each link one sampled neighbor per
// vertex, and a compress follows each. The most frequent root among
// 1,024 sampled vertices then names the giant component, and a final
// pass links the remaining edges of every vertex outside it. Links CAS
// the higher root onto the lower id, so each root is its tree's
// smallest id and the labels do not depend on the thread count or the
// backend. Seven parallel regions per call on any rt::exec backend; the
// sequential count_components() below is its test oracle.
#pragma once

#include <vector>

#include "micg/graph/csr.hpp"
#include "micg/rt/exec.hpp"

namespace micg::graph {

template <class VId>
struct basic_components_result {
  /// label[v]: smallest vertex id in v's component (canonical form).
  std::vector<VId> label;
  VId num_components = 0;
  int rounds = 0;  ///< link passes: two sampling passes plus the final one
};

using components_result = basic_components_result<vertex_t>;

/// Afforest connected components. Defined for every shipped
/// layout (explicit instantiations in components.cpp).
template <CsrGraph G>
basic_components_result<typename G::vertex_type> parallel_components(
    const G& g, const rt::exec& ex);

/// Number of connected components by sequential traversal — the oracle
/// parallel_components() is checked against.
template <CsrGraph G>
typename G::vertex_type count_components(const G& g);

}  // namespace micg::graph
