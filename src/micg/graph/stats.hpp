// One-sweep structural statistics of a graph.
//
// Several consumers used to run their own ad-hoc degree scans: the
// landmark builder partial-sorted all vertices for its top-degree pivots,
// `info` swept degrees for Table-I statistics, and delta-stepping's
// default bucket width (tune::pick_sssp_delta) reads the mean degree.
// graph_stats computes all of it in one pass over xadj (plus an
// O(n log k) top-k selection), cheap enough to run at graph load time.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "micg/graph/any_csr.hpp"
#include "micg/graph/csr.hpp"

namespace micg::graph {

/// Top-degree vertices retained by the probe; 64 == msbfs_max_lanes, so
/// one stats sweep can seed the largest landmark batch.
inline constexpr int stats_top_k = 64;

/// Degree buckets: bucket 0 counts isolated vertices, bucket b >= 1
/// counts degrees in [2^(b-1), 2^b). 34 buckets cover any EId degree.
inline constexpr int stats_hist_buckets = 34;

struct graph_stats {
  std::int64_t num_vertices = 0;
  std::int64_t num_directed_edges = 0;  ///< 2|E|, the xadj back value

  // --- degree distribution (the Table I columns, one sweep) -------------
  std::int64_t min_degree = 0;
  std::int64_t max_degree = 0;  ///< Delta in the paper
  double avg_degree = 0.0;
  double degree_stddev = 0.0;
  std::array<std::int64_t, stats_hist_buckets> degree_log2_hist{};

  /// Up to stats_top_k vertex ids by (degree desc, id asc) — the landmark
  /// pivot rule, precomputed so pivot selection is a table lookup.
  std::vector<std::int64_t> top_vertices;
  /// Fraction of directed edges owned by top_vertices (hub mass: ~0 on
  /// meshes, large on RMAT — the skew signal edge partitioning answers).
  double hub_edge_fraction = 0.0;

  // --- derived frontier-shape estimates ---------------------------------
  /// max_degree / avg_degree; 1 on regular graphs, >> 1 on RMAT.
  [[nodiscard]] double skew() const {
    return avg_degree > 0.0 ? static_cast<double>(max_degree) / avg_degree
                            : 1.0;
  }
  /// Geometric-expansion estimate of BFS depth (log_b n for branching
  /// factor b = avg_degree). An *estimate from the degree distribution*,
  /// not a traversal: high-diameter meshes are deeper than this predicts,
  /// so consumers treat small values as "plausibly shallow and wide", not
  /// as a measurement.
  double est_levels = 0.0;
  /// Estimated fraction of vertices in the widest BFS level under the
  /// same expansion model ((b-1)/b for branching factor b).
  double est_peak_frontier = 0.0;
};

/// One-sweep probe. Cost: one pass over xadj + one O(n log k) partial
/// sort for the top-k table.
template <CsrGraph G>
graph_stats compute_graph_stats(const G& g);

graph_stats compute_graph_stats(const any_csr& g);

/// Top-`k` vertex ids by (degree desc, id asc) — the shared selection
/// rule (landmark pivots, hub tables). `k` is clamped to |V|.
template <CsrGraph G>
std::vector<typename G::vertex_type> top_degree_vertices(const G& g, int k);

}  // namespace micg::graph
