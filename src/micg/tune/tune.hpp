// Default parameter picks that read a graph's structural statistics.
//
// The kernels run one fixed configuration each (docs/performance.md);
// the only graph-dependent default left is delta-stepping's bucket
// width, picked here from the graph probe (graph/stats.hpp).
#pragma once

#include <cstdint>

#include "micg/graph/stats.hpp"

namespace micg::tune {

/// Default delta-stepping bucket width for a graph: max_weight divided by
/// the branching factor (clamped to >= 1). Rationale: a settled vertex's
/// out-relaxations spread over ~avg_degree targets within max_weight of
/// it, so this width keeps a bucket's expected population near one
/// frontier "generation" — fewer rounds on meshes (low degree -> wide
/// buckets), less re-relaxation on hubs (high degree -> narrow buckets).
/// Output-invariant: distances are exact for ANY delta >= 1
/// (bfs/sssp.hpp), the pick only moves the speed.
std::int64_t pick_sssp_delta(const graph::graph_stats& st,
                             std::int64_t max_weight);

}  // namespace micg::tune
