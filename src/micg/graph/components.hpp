// Parallel connected components via label propagation with pointer
// jumping — the standard shared-memory formulation (Shiloach–Vishkin
// style hooking + shortcutting). Runs on any rt::exec backend; the
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
  int rounds = 0;  ///< hook+compress iterations until fixpoint
};

using components_result = basic_components_result<vertex_t>;

/// Label-propagation connected components. Defined for every shipped
/// layout (explicit instantiations in components.cpp).
template <CsrGraph G>
basic_components_result<typename G::vertex_type> parallel_components(
    const G& g, const rt::exec& ex);

/// Number of connected components by sequential traversal — the oracle
/// parallel_components() is checked against.
template <CsrGraph G>
typename G::vertex_type count_components(const G& g);

}  // namespace micg::graph
