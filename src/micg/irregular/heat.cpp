#include "micg/irregular/heat.hpp"

#include <utility>

#include "micg/support/assert.hpp"
#include "micg/support/simd.hpp"

namespace micg::irregular {

template <micg::graph::CsrGraph G>
std::vector<double> heat_diffusion(const G& g,
                                   std::span<const double> state,
                                   const heat_options& opt) {
  using VId = typename G::vertex_type;
  using EId = typename G::edge_type;
  const VId n = g.num_vertices();
  MICG_CHECK(static_cast<VId>(state.size()) == n,
             "state size must equal vertex count");
  MICG_CHECK(opt.steps >= 0, "steps must be non-negative");
  MICG_CHECK(opt.alpha > 0.0, "alpha must be positive");
  MICG_CHECK(opt.ex.threads >= 1, "need at least one thread");

  const EId* xadj = g.xadj().data();
  const VId* adj = g.adj().data();
  const bool vec = opt.mem.simd;

  std::vector<double> cur(state.begin(), state.end());
  std::vector<double> next(cur.size());
  for (int s = 0; s < opt.steps; ++s) {
    const double* src = cur.data();
    double* dst = next.data();
    rt::for_range_graph(
        opt.ex, n, xadj, opt.mem.partition,
        [&](std::int64_t b, std::int64_t e, int) {
          for (std::int64_t i = b; i < e; ++i) {
            const EId rb = xadj[i];
            const EId re = xadj[i + 1];
            // sum_w (src[w] - src[i]) = gather_sum - deg*src[i]; the
            // gathered sum is the only reassociated term, so the result
            // is identical across all knob combinations.
            const double sum = simd::gather_sum(
                src, adj + rb, static_cast<std::size_t>(re - rb), vec);
            const double acc =
                sum - static_cast<double>(re - rb) * src[i];
            dst[i] = src[i] + opt.alpha * acc;
          }
        });
    std::swap(cur, next);
  }
  return cur;
}

#define MICG_INSTANTIATE(G)                       \
  template std::vector<double> heat_diffusion<G>( \
      const G&, std::span<const double>, const heat_options&);
MICG_FOR_EACH_CSR_LAYOUT(MICG_INSTANTIATE)
#undef MICG_INSTANTIATE

}  // namespace micg::irregular
