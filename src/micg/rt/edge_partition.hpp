// Edge-balanced loop partitioning.
//
// for_range() splits [0, n) by *item count*, which serializes on skewed
// degree distributions: an RMAT hub row can hold more edges than the rest
// of a chunk combined, so the worker that draws it becomes the critical
// path (the load imbalance §V-B of the paper measures). for_range_edges()
// splits the same vertex range so every chunk owns roughly equal *edges*,
// found by binary-searching the CSR offset array — the same number of
// chunks a vertex-count split at exec::chunk would produce, with the
// boundaries moved. Chunks then flow through the configured backend
// (dynamic, guided, cilk, tbb, ...) exactly like any other loop.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "micg/rt/exec.hpp"
#include "micg/support/assert.hpp"

namespace micg::rt {

/// How a kernel splits its vertex loop across workers.
enum class partition_mode {
  vertex,  ///< equal vertex counts per chunk (the historical behavior)
  edge,    ///< equal edge counts per chunk (binary search on xadj)
};

inline const char* partition_mode_name(partition_mode m) {
  return m == partition_mode::edge ? "edge" : "vertex";
}

/// Memory-hierarchy fast-path knobs of the irregular kernels. The
/// defaults are the fast path; scalar_mem_opts() is the pre-optimization
/// behavior for ablations and parity tests.
struct mem_opts {
  partition_mode partition = partition_mode::edge;
  /// Use the vector gather path when compiled in (see support/simd.hpp).
  bool simd = true;
};

/// The pre-optimization configuration: per-vertex chunks, scalar gathers.
inline mem_opts scalar_mem_opts() {
  return {.partition = partition_mode::vertex, .simd = false};
}

/// Run `body(vertex_begin, vertex_end, worker)` over [0, n) with chunk
/// boundaries placed so each chunk owns ~equal entries of the CSR offset
/// array `xadj` (size n+1, non-decreasing, xadj[0] == 0). Falls back to
/// an even vertex split when the graph has no edges.
template <class EId, typename Body>
void for_range_edges(const exec& e, std::int64_t n, const EId* xadj,
                     const Body& body) {
  if (n <= 0) return;
  const auto total = static_cast<std::int64_t>(xadj[n]);
  const std::int64_t chunk = e.chunk > 0 ? e.chunk : 1;
  const std::int64_t nchunks =
      std::min<std::int64_t>(n, (n + chunk - 1) / chunk);
  if (total <= 0 || nchunks <= 1) {
    for_range(e, n, body);
    return;
  }

  // bounds[c] = first vertex of chunk c; chunk c covers edge indices
  // ~[c*total/nchunks, (c+1)*total/nchunks). A hub row heavier than a
  // whole chunk gets a chunk of its own (rows are never split).
  std::vector<std::int64_t> bounds(static_cast<std::size_t>(nchunks) + 1);
  bounds.front() = 0;
  bounds.back() = n;
  for (std::int64_t c = 1; c < nchunks; ++c) {
    // 128-bit product: total*c can exceed 2^63 on Graph500-scale inputs.
    const auto target = static_cast<EId>(
        static_cast<std::int64_t>(static_cast<__int128>(total) * c / nchunks));
    const auto* it = std::upper_bound(xadj, xadj + n + 1, target);
    auto v = static_cast<std::int64_t>(it - xadj) - 1;
    v = std::clamp(v, bounds[static_cast<std::size_t>(c) - 1], n);
    bounds[static_cast<std::size_t>(c)] = v;
  }

  exec chunked = e;
  chunked.chunk = 1;  // one dispatch unit = one edge-balanced chunk
  for_range(chunked, nchunks,
            [&](std::int64_t cb, std::int64_t ce, int worker) {
              const std::int64_t vb = bounds[static_cast<std::size_t>(cb)];
              const std::int64_t ve = bounds[static_cast<std::size_t>(ce)];
              if (vb < ve) body(vb, ve, worker);
            });
}

/// Dispatch a vertex loop under either partitioning mode.
template <class EId, typename Body>
void for_range_graph(const exec& e, std::int64_t n, const EId* xadj,
                     partition_mode mode, const Body& body) {
  if (mode == partition_mode::edge) {
    for_range_edges(e, n, xadj, body);
  } else {
    for_range(e, n, body);
  }
}

}  // namespace micg::rt
