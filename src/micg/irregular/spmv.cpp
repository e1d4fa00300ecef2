#include "micg/irregular/spmv.hpp"


#include "micg/obs/obs.hpp"
#include "micg/support/assert.hpp"
#include "micg/support/simd.hpp"

namespace micg::irregular {

template <micg::graph::CsrGraph G>
std::vector<double> spmv(const G& g, std::span<const double> x,
                         const spmv_options& opt) {
  using VId = typename G::vertex_type;
  using EId = typename G::edge_type;
  const VId n = g.num_vertices();
  MICG_CHECK(static_cast<VId>(x.size()) == n,
             "vector size must equal vertex count");
  MICG_CHECK(opt.ex.threads >= 1, "need at least one thread");

  std::vector<double> y(static_cast<std::size_t>(n), 0.0);
  const double* src = x.data();
  double* dst = y.data();
  const EId* xadj = g.xadj().data();
  const VId* adj = g.adj().data();
  const bool vec = opt.mem.simd;
  const bool walk = opt.matrix == spmv_matrix::random_walk;

  rt::for_range_graph(
      opt.ex, n, xadj, opt.mem.partition,
      [&](std::int64_t b, std::int64_t e, int) {
        for (std::int64_t i = b; i < e; ++i) {
          const EId rb = xadj[i];
          const EId deg = xadj[i + 1] - rb;
          double acc = simd::gather_sum(src, adj + rb,
                                        static_cast<std::size_t>(deg), vec);
          if (walk && deg > 0) acc /= static_cast<double>(deg);
          dst[i] = acc;
        }
      });
  if (obs::recorder* rec = opt.ex.sink(); rec != nullptr) {
    rec->set_meta("kernel", "spmv");
    rec->set_meta("partition", rt::partition_mode_name(opt.mem.partition));
    rec->set_meta("simd", opt.mem.simd && simd::vectorized() ? simd::isa_name()
                                                             : "scalar");
  }
  return y;
}

#define MICG_INSTANTIATE(G)             \
  template std::vector<double> spmv<G>( \
      const G&, std::span<const double>, const spmv_options&);
MICG_FOR_EACH_CSR_LAYOUT(MICG_INSTANTIATE)
#undef MICG_INSTANTIATE

}  // namespace micg::irregular
