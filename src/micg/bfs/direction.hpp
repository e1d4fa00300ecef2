// Direction-optimizing BFS (Beamer, Asanović, Patterson SC'12) — beyond
// the paper (§VI points at further algorithm engineering), and the BFS
// that api::run(bfs) runs by default.
//
// Top-down steps are layered BFS's block-queue level step (Algorithm 7,
// OpenMP-Block-relaxed): the frontier is the block-accessed queue, and
// each worker counts the vertices it claims and their degrees in its own
// padded slot, so the direction heuristic reads the frontier totals with
// one add per worker. A relaxed claim can count a raced vertex twice; a
// total that would switch the search is recounted exactly first, so the
// switches fall on the same steps at every thread count. When the
// frontier's out-edges pass |E|/alpha the search switches to bottom-up
// steps over 64-vertex bitmap words, where every unvisited vertex scans
// its neighbors for a parent in the current frontier (early exit on
// first hit), with the words split across workers in edge-balanced
// chunks so hub rows of skewed (RMAT) graphs do not serialize a step;
// it switches back, and
// unpacks the bitmap frontier into the queue, once the frontier shrinks
// below |V|/beta. On the high-diameter FEM meshes of Table I the
// frontiers stay narrow, the switch never fires and every step is the
// layered step; on RMAT graphs it collapses the few huge middle levels.
#pragma once

#include "micg/bfs/layered.hpp"
#include "micg/bfs/seq.hpp"
#include "micg/graph/csr.hpp"
#include "micg/rt/exec.hpp"

namespace micg::bfs {

/// Display name of this kernel: the default `variant` of an api bfs
/// request (the six layered names select parallel_bfs instead).
inline constexpr const char* direction_bfs_name = "Direction-optimizing";

struct direction_options {
  /// Threads, chunk, pool and metrics sink (the backend kind is fixed to
  /// the OpenMP-dynamic substrate).
  rt::exec ex;
  /// Block size of the top-down steps' block-accessed queue.
  int block = 32;
  /// Switch to bottom-up when frontier edges exceed |E|/alpha (Beamer's
  /// alpha); back to top-down when the frontier shrinks below |V|/beta.
  double alpha = 14.0;
  double beta = 24.0;
};

struct direction_bfs_result : bfs_result {
  int top_down_steps = 0;
  int bottom_up_steps = 0;
  /// Queue slots, sentinel padding included, summed over the top-down
  /// steps (layered BFS's queue_slots_per_level, totalled).
  std::size_t queue_slots = 0;
};

/// Run direction-optimizing BFS from `source`. Levels are identical to
/// seq_bfs(). Defined for every shipped layout.
template <micg::graph::CsrGraph G>
direction_bfs_result direction_optimizing_bfs(const G& g,
                                              typename G::vertex_type source,
                                              const direction_options& opt);

}  // namespace micg::bfs
