// Weighted graph core: any CSR layout paired with a parallel weights[]
// array, one entry per adjacency slot (docs/workloads.md).
//
// Weights are *derived*, not stored alongside the topology: every edge
// {u, v} hashes its endpoint pair (plus a seed) through a splitmix64-style
// stateless mixer, so
//   * both stored directions of an undirected edge get the same weight
//     (the mixer sees the sorted pair);
//   * the weight is independent of the CSR layout and of the adjacency
//     array's internal order — csr32/csr_graph/csr64 views of the same
//     graph carry bit-identical weight streams;
//   * an edge keeps its weight across serve-layer mutations and
//     compactions: a surviving {u, v} hashes to the same value in every
//     snapshot epoch, which is what lets weighted queries pin snapshots
//     without materializing weights in the store.
// Weights are integers in [min_weight, max_weight] with min_weight >= 1,
// so SSSP distances are exact int64 sums and the differential oracles can
// use EXPECT_EQ rather than a tolerance.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "micg/graph/any_csr.hpp"
#include "micg/graph/csr.hpp"
#include "micg/rt/exec.hpp"
#include "micg/support/rng.hpp"

namespace micg::graph {

/// Edge weight. 32-bit: the weights array rides next to adj[] on the
/// bandwidth-bound relaxation path, so half-width entries halve its
/// traffic, and int64 distance sums cannot overflow before 2^32 edges.
using weight_t = std::int32_t;

/// Deterministic weight-generation parameters (the RNG-locked seed
/// surface, like the topology generators' seeds).
struct weight_params {
  std::uint64_t seed = 1;
  weight_t min_weight = 1;    ///< must be >= 1 (positive weights)
  weight_t max_weight = 255;  ///< inclusive
};

/// The weight of edge {u, v} under `p`: a pure function of the seed and
/// the *sorted* endpoint pair. Both directions agree by construction.
inline weight_t edge_weight(const weight_params& p, std::int64_t u,
                            std::int64_t v) {
  const auto lo = static_cast<std::uint64_t>(u < v ? u : v);
  const auto hi = static_cast<std::uint64_t>(u < v ? v : u);
  // Distinct odd multipliers keep (lo, hi) and (lo', hi') streams apart;
  // one splitmix64 step finalizes (support/rng.hpp — the stream the
  // property tests pin).
  micg::splitmix64 sm(p.seed ^ (lo * 0xd1342543de82ef95ULL) ^
                      (hi * 0xaf251af3b0f025b5ULL));
  const auto range = static_cast<std::uint64_t>(p.max_weight) -
                     static_cast<std::uint64_t>(p.min_weight) + 1;
  return static_cast<weight_t>(static_cast<std::uint64_t>(p.min_weight) +
                               sm.next() % range);
}

/// out[i] = edge_weight of the edge stored at adjacency slot i, for every
/// slot — the parallel array delta-stepping consumes. Every slot is
/// written, so `out` may start uninitialized. At ex.threads > 1 the rows
/// are split edge-balanced over ex's pool in chunks of ~1024 vertices (the
/// workers that write the pages touch them first); at one thread the loop
/// runs inline and opens no parallel region. Defined for every shipped
/// layout (instantiations in weighted.cpp). Throws micg::check_error on
/// invalid params (min < 1 or min > max) or when out.size() is not
/// g.num_directed_edges().
template <CsrGraph G>
void fill_weights(const G& g, const weight_params& p, std::span<weight_t> out,
                  const rt::exec& ex);

/// fill_weights into a fresh vector on the calling thread.
template <CsrGraph G>
std::vector<weight_t> generate_weights(const G& g, const weight_params& p);

std::vector<weight_t> generate_weights(const any_csr& g,
                                       const weight_params& p);

/// Check the weighted invariants of (g, weights): the array is
/// adjacency-parallel, every weight is positive, and both stored
/// directions of every edge agree. O(|E| log Delta); throws
/// micg::check_error on violation. Used by weighted_csr::validate and by
/// the binary reader on untrusted version-3 files.
template <CsrGraph G>
void validate_weights(const G& g, std::span<const weight_t> weights);

void validate_weights(const any_csr& g, std::span<const weight_t> weights);

/// A CSR layout paired with its parallel weights array. Owns both; the
/// kernels take (graph, span<const weight_t>) so borrowed views work too.
template <CsrGraph G>
struct weighted_csr {
  using vertex_type = typename G::vertex_type;
  using edge_type = typename G::edge_type;

  G g;
  std::vector<weight_t> weights;  ///< size == g.num_directed_edges()

  /// Weights of v's adjacency slice, parallel to g.neighbors(v).
  [[nodiscard]] std::span<const weight_t> weights_of(vertex_type v) const {
    const auto b = static_cast<std::size_t>(
        g.xadj()[static_cast<std::size_t>(v)]);
    const auto e = static_cast<std::size_t>(
        g.xadj()[static_cast<std::size_t>(v) + 1]);
    return {weights.data() + b, e - b};
  }

  /// Re-checks the weighted invariants (see validate_weights).
  void validate() const { validate_weights(g, std::span<const weight_t>(weights)); }
};

/// Pair `g` with its derived weight array.
template <CsrGraph G>
weighted_csr<G> make_weighted(G g, const weight_params& p) {
  auto w = generate_weights(g, p);
  return {std::move(g), std::move(w)};
}

}  // namespace micg::graph
