#include "micg/graph/stats.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <utility>

namespace micg::graph {

namespace {

/// Bucket index of `d`: 0 for d == 0, else 1 + floor(log2(d)).
int hist_bucket(std::int64_t d) {
  if (d <= 0) return 0;
  int b = 1;
  while (d > 1 && b < stats_hist_buckets - 1) {
    d >>= 1;
    ++b;
  }
  return b;
}

}  // namespace

template <CsrGraph G>
std::vector<typename G::vertex_type> top_degree_vertices(const G& g, int k) {
  using VId = typename G::vertex_type;
  const VId n = g.num_vertices();
  const auto kk = static_cast<VId>(
      std::min<std::int64_t>(std::max(k, 0), static_cast<std::int64_t>(n)));
  std::vector<VId> order(static_cast<std::size_t>(n));
  std::iota(order.begin(), order.end(), VId{0});
  std::partial_sort(order.begin(), order.begin() + kk, order.end(),
                    [&](VId a, VId b) {
                      const auto da = g.degree(a);
                      const auto db = g.degree(b);
                      return da != db ? da > db : a < b;
                    });
  order.resize(static_cast<std::size_t>(kk));
  return order;
}

template <CsrGraph G>
graph_stats compute_graph_stats(const G& g) {
  using VId = typename G::vertex_type;
  graph_stats st;
  const VId n = g.num_vertices();
  st.num_vertices = static_cast<std::int64_t>(n);
  st.num_directed_edges = static_cast<std::int64_t>(g.num_directed_edges());
  if (n == 0) return st;

  // One pass over xadj: min/max/mean/variance (Welford-free two-moment
  // form is fine — degrees are exact integers) and the log2 histogram.
  std::int64_t mind = std::numeric_limits<std::int64_t>::max();
  std::int64_t maxd = 0;
  double sum = 0.0;
  double sumsq = 0.0;
  for (VId v = 0; v < n; ++v) {
    const auto d = static_cast<std::int64_t>(g.degree(v));
    mind = std::min(mind, d);
    maxd = std::max(maxd, d);
    sum += static_cast<double>(d);
    sumsq += static_cast<double>(d) * static_cast<double>(d);
    ++st.degree_log2_hist[static_cast<std::size_t>(hist_bucket(d))];
  }
  st.min_degree = mind;
  st.max_degree = maxd;
  const auto dn = static_cast<double>(n);
  st.avg_degree = sum / dn;
  const double var = std::max(0.0, sumsq / dn - st.avg_degree * st.avg_degree);
  st.degree_stddev = std::sqrt(var);

  const auto top = top_degree_vertices(g, stats_top_k);
  st.top_vertices.reserve(top.size());
  std::int64_t hub_edges = 0;
  for (const VId v : top) {
    st.top_vertices.push_back(static_cast<std::int64_t>(v));
    hub_edges += static_cast<std::int64_t>(g.degree(v));
  }
  st.hub_edge_fraction =
      st.num_directed_edges > 0
          ? static_cast<double>(hub_edges) /
                static_cast<double>(st.num_directed_edges)
          : 0.0;

  // Geometric-expansion frontier estimate: branching factor b = avg
  // degree. b <= 1 means chain-like growth (depth ~ n); otherwise depth
  // ~ log_b n and the widest level holds ~ (b-1)/b of the vertices.
  if (st.avg_degree > 1.0) {
    st.est_levels = std::max(
        1.0, std::log(dn) / std::log(st.avg_degree) + 1.0);
    st.est_peak_frontier = (st.avg_degree - 1.0) / st.avg_degree;
  } else {
    st.est_levels = dn;
    st.est_peak_frontier = dn > 0.0 ? 1.0 / dn : 0.0;
  }
  return st;
}

graph_stats compute_graph_stats(const any_csr& g) {
  return g.visit([](const auto& cg) { return compute_graph_stats(cg); });
}

#define MICG_INSTANTIATE(G)                                \
  template graph_stats compute_graph_stats<G>(const G&);   \
  template std::vector<typename G::vertex_type>            \
  top_degree_vertices<G>(const G&, int);
MICG_FOR_EACH_CSR_LAYOUT(MICG_INSTANTIATE)
#undef MICG_INSTANTIATE

}  // namespace micg::graph
