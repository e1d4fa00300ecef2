#include "micg/graph/weighted.hpp"

#include <algorithm>
#include <cstddef>

#include "micg/rt/edge_partition.hpp"
#include "micg/support/assert.hpp"

namespace micg::graph {

namespace {

/// Vertices per fill chunk: enough hashing per dispatch to hide the claim,
/// and enough chunks on a mid-size graph for the pool to balance.
constexpr std::int64_t kFillGrain = 1024;

void check_params(const weight_params& p) {
  MICG_CHECK(p.min_weight >= 1,
             "weight min_weight must be >= 1 (positive weights)");
  MICG_CHECK(p.min_weight <= p.max_weight,
             "weight min_weight must be <= max_weight");
}

}  // namespace

template <CsrGraph G>
void fill_weights(const G& g, const weight_params& p, std::span<weight_t> out,
                  const rt::exec& ex) {
  check_params(p);
  MICG_CHECK(out.size() == static_cast<std::size_t>(g.num_directed_edges()),
             "weights array is not adjacency-parallel");
  using VId = typename G::vertex_type;
  const auto fill_rows = [&](std::int64_t vb, std::int64_t ve, int) {
    for (auto v = static_cast<VId>(vb); v < static_cast<VId>(ve); ++v) {
      auto slot =
          static_cast<std::size_t>(g.xadj()[static_cast<std::size_t>(v)]);
      for (const auto u : g.neighbors(v)) {
        out[slot++] = edge_weight(p, static_cast<std::int64_t>(v),
                                  static_cast<std::int64_t>(u));
      }
    }
  };
  const auto n = static_cast<std::int64_t>(g.num_vertices());
  if (ex.threads <= 1) {
    fill_rows(0, n, 0);
    return;
  }
  rt::exec grained = ex;
  grained.chunk = kFillGrain;
  rt::for_range_edges(grained, n, g.xadj().data(), fill_rows);
}

template <CsrGraph G>
std::vector<weight_t> generate_weights(const G& g, const weight_params& p) {
  std::vector<weight_t> w(static_cast<std::size_t>(g.num_directed_edges()));
  fill_weights(g, p, std::span<weight_t>(w), rt::exec{});
  return w;
}

std::vector<weight_t> generate_weights(const any_csr& g,
                                       const weight_params& p) {
  std::vector<weight_t> w;
  g.visit([&](const auto& cg) { w = generate_weights(cg, p); });
  return w;
}

template <CsrGraph G>
void validate_weights(const G& g, std::span<const weight_t> weights) {
  using VId = typename G::vertex_type;
  MICG_CHECK(weights.size() ==
                 static_cast<std::size_t>(g.num_directed_edges()),
             "weights array is not adjacency-parallel");
  const VId n = g.num_vertices();
  for (VId v = 0; v < n; ++v) {
    const auto nbrs = g.neighbors(v);
    const auto base =
        static_cast<std::size_t>(g.xadj()[static_cast<std::size_t>(v)]);
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      MICG_CHECK(weights[base + i] >= 1, "edge weight must be positive");
      // The reverse slot {u, v} must carry the same weight (adjacency
      // lists are sorted, so the back edge is a binary search away).
      const VId u = nbrs[i];
      const auto back = g.neighbors(u);
      const auto it = std::lower_bound(back.begin(), back.end(), v);
      MICG_CHECK(it != back.end() && *it == v, "adjacency not symmetric");
      const auto slot = static_cast<std::size_t>(
          g.xadj()[static_cast<std::size_t>(u)] + (it - back.begin()));
      MICG_CHECK(weights[slot] == weights[base + i],
                 "edge weight is not symmetric across stored directions");
    }
  }
}

void validate_weights(const any_csr& g, std::span<const weight_t> weights) {
  g.visit([&](const auto& cg) { validate_weights(cg, weights); });
}

#define MICG_INSTANTIATE(G)                                             \
  template void fill_weights<G>(const G&, const weight_params&,         \
                                std::span<weight_t>, const rt::exec&);  \
  template std::vector<weight_t> generate_weights<G>(const G&,          \
                                                     const weight_params&); \
  template void validate_weights<G>(const G&, std::span<const weight_t>);
MICG_FOR_EACH_CSR_LAYOUT(MICG_INSTANTIATE)
#undef MICG_INSTANTIATE

}  // namespace micg::graph
