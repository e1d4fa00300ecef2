#include "micg/bfs/landmark.hpp"

#include <algorithm>
#include <cstdint>
#include <utility>

#include "micg/graph/stats.hpp"
#include "micg/obs/obs.hpp"
#include "micg/support/assert.hpp"

namespace micg::bfs {

landmark_estimate landmark_index::estimate(std::int64_t u,
                                           std::int64_t v) const {
  MICG_CHECK(u >= 0 && u < n_, "landmark endpoint out of range");
  MICG_CHECK(v >= 0 && v < n_, "landmark endpoint out of range");
  landmark_estimate est;
  if (u == v) {
    est.upper = 0;
    est.lower = 0;
    est.exact = true;
    return est;
  }
  const int k = count();
  for (int p = 0; p < k; ++p) {
    const int du = pivot_level(p, u);
    const int dv = pivot_level(p, v);
    if ((du < 0) != (dv < 0)) {
      // One endpoint reachable from the pivot, the other not: the
      // endpoints sit in different components. Definitive, so no other
      // pivot can reach both — stop here.
      est.upper = -1;
      est.lower = 0;
      est.disjoint = true;
      est.exact = true;
      return est;
    }
    if (du < 0) continue;  // pivot reaches neither endpoint
    const auto sum = static_cast<std::int64_t>(du) + dv;
    const auto diff = static_cast<std::int64_t>(du > dv ? du - dv : dv - du);
    if (est.upper < 0 || sum < est.upper) est.upper = sum;
    if (diff > est.lower) est.lower = diff;
  }
  // A pivot on the shortest path (e.g. a pivot that *is* an endpoint)
  // closes the bounds; then the upper bound is the distance itself.
  est.exact = est.upper >= 0 && est.upper == est.lower;
  return est;
}

template <micg::graph::CsrGraph G>
landmark_index build_landmarks(const G& g, const landmark_options& opt) {
  using VId = typename G::vertex_type;
  MICG_CHECK(opt.count >= 1 && opt.count <= landmark_max_count,
             "landmark count must be in [1, 64]");
  const VId n = g.num_vertices();

  landmark_index idx;
  idx.n_ = static_cast<std::int64_t>(n);
  if (n == 0) return idx;

  // Top-k-by-degree pivots, ties to the lower id: hub landmarks give the
  // tightest d(L,u)+d(L,v) sums on skewed-degree graphs, and the
  // deterministic rule keeps answers reproducible across rebuilds. The
  // selection itself is the shared graph/stats helper, so the rule here
  // and the stats probe's hub table cannot drift apart.
  const std::vector<VId> pivots = graph::top_degree_vertices(g, opt.count);

  msbfs_options mo;
  mo.ex = opt.ex;
  msbfs_result res = msbfs(g, std::span<const VId>(pivots), mo);

  idx.pivots_.reserve(pivots.size());
  for (VId p : pivots) idx.pivots_.push_back(static_cast<std::int64_t>(p));
  // The lane-major level matrix of the batch IS the pivot-major distance
  // table: lane p row == seq_bfs(g, pivots[p]).level.
  idx.dist_ = std::move(res.level);

  if (obs::recorder* rec = opt.ex.sink(); rec != nullptr) {
    rec->get_counter("landmark.builds").inc(0);
    rec->set_value("landmark.pivots", static_cast<double>(idx.count()));
  }
  return idx;
}

landmark_index build_landmarks(const graph::any_csr& g,
                               const landmark_options& opt) {
  return g.visit([&](const auto& cg) { return build_landmarks(cg, opt); });
}

#define MICG_INSTANTIATE(G) \
  template landmark_index build_landmarks<G>(const G&, \
                                             const landmark_options&);
MICG_FOR_EACH_CSR_LAYOUT(MICG_INSTANTIATE)
#undef MICG_INSTANTIATE

}  // namespace micg::bfs
