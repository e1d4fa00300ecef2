// Sparse matrix-vector product with the graph's adjacency pattern — the
// paper notes the microbenchmark "has data dependencies similar to a sparse
// matrix vector multiplication" (§III-B). y[v] = sum over neighbors w of
// value(v, w) * x[w], where the implicit value is 1 (adjacency) or
// 1/degree(v) (row-stochastic / random-walk matrix).
#pragma once

#include <span>
#include <vector>

#include "micg/graph/csr.hpp"
#include "micg/rt/edge_partition.hpp"
#include "micg/rt/exec.hpp"

namespace micg::irregular {

enum class spmv_matrix {
  adjacency,   ///< A[v][w] = 1 for each edge
  random_walk, ///< A[v][w] = 1/degree(v)
};

struct spmv_options {
  rt::exec ex;
  spmv_matrix matrix = spmv_matrix::adjacency;
  /// Memory-hierarchy fast-path knobs (SIMD gather, edge-balanced
  /// partitioning). All combinations produce bit-identical output
  /// (tested); rt::scalar_mem_opts() is the pre-optimization path.
  rt::mem_opts mem;
};

/// y = A x on the selected backend. Defined for every shipped layout.
template <micg::graph::CsrGraph G>
std::vector<double> spmv(const G& g, std::span<const double> x,
                         const spmv_options& opt);

/// Convenience overload with default fast-path knobs.
template <micg::graph::CsrGraph G>
std::vector<double> spmv(const G& g, std::span<const double> x,
                         const rt::exec& ex,
                         spmv_matrix matrix = spmv_matrix::adjacency) {
  spmv_options opt;
  opt.ex = ex;
  opt.matrix = matrix;
  return spmv(g, x, opt);
}

}  // namespace micg::irregular
